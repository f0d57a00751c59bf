import numpy as np
import pytest

from funcalg import bloch
from funcalg.numcore import HoloPoly


class TestSeminorm:
    def test_z_squared(self):
        # sup (1 - r^2) * 2r over [0, 1) is attained at r = 1/sqrt(3)
        rep = bloch.bloch_seminorm(HoloPoly([0, 0, 1]), 1.0)
        assert rep.seminorm == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-6)
        assert abs(rep.argmax_z) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)

    def test_linear(self):
        # f = z: (1 - r^2) * 1 is maximal at r = 0
        rep = bloch.bloch_seminorm(HoloPoly([0, 1]), 1.0)
        assert rep.seminorm == pytest.approx(1.0, abs=1e-8)

    def test_constant(self):
        rep = bloch.bloch_seminorm(HoloPoly([5.0]), 1.0)
        assert rep.seminorm == pytest.approx(0.0, abs=1e-12)
        assert rep.norm == pytest.approx(5.0, abs=1e-12)

    def test_alpha_half_linear(self):
        # sup (1 - r^2)^(1/2) over the disc is 1 at the origin
        rep = bloch.bloch_seminorm(HoloPoly([0, 1]), 0.5)
        assert rep.seminorm == pytest.approx(1.0, abs=1e-8)

    def test_alpha2_z_squared(self):
        # oracle: maximize (1 - r^2)^2 * 2r, r* = 1/sqrt(5)
        r = 1.0 / np.sqrt(5.0)
        target = (1 - r * r) ** 2 * 2 * r
        rep = bloch.bloch_seminorm(HoloPoly([0, 0, 1]), 2.0)
        assert rep.seminorm == pytest.approx(target, abs=1e-6)

    def test_norm_adds_origin_value(self):
        f = HoloPoly([2.0 + 1j, 0, 1])
        rep = bloch.bloch_seminorm(f, 1.0)
        assert rep.norm == pytest.approx(abs(2.0 + 1j) + rep.seminorm, abs=1e-12)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            bloch.bloch_seminorm(HoloPoly([0, 1]), 0.0)


def _random_cases(count=20):
    rng = np.random.default_rng(20)
    for _ in range(count):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        yield HoloPoly(coeffs), float(rng.choice([0.5, 1.0, 1.5, 2.0]))


class TestStencilPolish:
    """The polish ends at a local maximum that Nelder-Mead cannot improve."""

    @staticmethod
    def g(f_prime, alpha, z):
        """(1 - |z|^2)^alpha |f'(z)|, with numpy's array arithmetic."""
        z = np.array([z])
        return float(((1.0 - np.abs(z) ** 2) ** alpha * np.abs(f_prime(z)))[0])

    def test_nelder_mead_cannot_improve(self):
        from scipy.optimize import minimize

        for f, alpha in _random_cases():
            rep = bloch.bloch_seminorm(f, alpha)
            fp = f.derivative()

            def neg(x):
                r = min(max(x[0], 0.0), 1.0 - 1e-12)
                return -self.g(fp, alpha, r * np.exp(1j * x[1]))

            z = rep.argmax_z
            res = minimize(neg, [abs(z), np.angle(z)], method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-15})
            assert -res.fun <= rep.seminorm * (1.0 + 1e-13)

    def test_value_is_attained_at_argmax(self):
        for f, alpha in _random_cases():
            rep = bloch.bloch_seminorm(f, alpha)
            value = self.g(f.derivative(), alpha, rep.argmax_z)
            assert rep.seminorm == pytest.approx(value, rel=1e-15, abs=0.0)


def _full_grid_best(f_prime, alpha, r, theta):
    """Reference for bloch._best_on: the largest (1-|z|^2)^alpha |f'(z)| over
    every point of the polar grid, with f' evaluated by Horner."""
    z = r[:, None] * np.exp(1j * theta)[None, :]
    vals = (1.0 - np.abs(z) ** 2) ** alpha * np.abs(f_prime(z))
    return float(vals.max())


def _ring_loop_little_bloch(f, radii):
    """Reference for bloch.little_bloch_test: one Horner ring per radius."""
    ring = np.exp(1j * 2.0 * np.pi * np.arange(256) / 256)
    fp = f.derivative()
    maxima = np.array([np.max((1.0 - r ** 2) * np.abs(fp(r * ring))) for r in radii])
    tail = maxima[len(maxima) // 2:]
    return bool(maxima[-1] < 1e-3 and np.all(np.diff(tail) <= 1e-12 * np.max(tail)))


class TestMatrixProductEvaluator:
    """Each grid level is one product of radial powers by angular characters;
    checked against the full-grid formula evaluated point by point."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_matches_full_grid_formula(self, n):
        rng = np.random.default_rng(n)
        r = np.linspace(0.0, 1.0, n, endpoint=False)
        theta = 2.0 * np.pi * np.arange(n) / n
        for deg in range(1, 9):
            f = HoloPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            fp = f.derivative()
            for alpha in (0.5, 1.0, 1.5, 2.0):
                value, z, r0, t0 = bloch._best_on(fp, alpha, r, theta)
                assert value == pytest.approx(_full_grid_best(fp, alpha, r, theta),
                                              rel=1e-14, abs=0.0)
                attained = (1.0 - abs(z) ** 2) ** alpha * abs(fp(z))
                assert value == pytest.approx(attained, rel=1e-14, abs=0.0)
                assert z == r0 * np.exp(1j * t0)

    @pytest.mark.parametrize("n, alpha", [(2, 1.0), (3, 0.5), (5, 2.0), (8, 1.5)])
    def test_monomial_argmax_radius(self, n, alpha):
        # |(c z^n)'| (1-r^2)^alpha = n|c| r^(n-1) (1-r^2)^alpha peaks at
        # r^2 = (n-1) / (n-1+2 alpha), on a whole circle
        c = 0.8 - 1.1j
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = c
        rep = bloch.bloch_seminorm(HoloPoly(coeffs), alpha)
        r_star = np.sqrt((n - 1) / (n - 1 + 2.0 * alpha))
        assert abs(rep.argmax_z) == pytest.approx(r_star, abs=1e-6)
        peak = n * abs(c) * r_star ** (n - 1) * (1.0 - r_star ** 2) ** alpha
        assert rep.seminorm == pytest.approx(peak, rel=1e-12)

    def test_little_bloch_matches_ring_loop(self):
        rng = np.random.default_rng(11)
        cases = [
            (HoloPoly([1, 2, 3]),
             np.concatenate([np.linspace(0.1, 0.9, 9), [0.99, 0.999, 0.99999]])),
            (HoloPoly([7.0]), np.array([0.5, 0.9, 0.99, 0.999])),
            (HoloPoly([1, 2, 1]), np.array([0.5, 0.9, 0.99, 0.999, 0.9999])),
        ]
        for _ in range(5):
            deg = int(rng.integers(1, 9))
            f = HoloPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            cases.append((f, np.sort(rng.uniform(0.0, 0.9999, 8))))
            cases.append((f, np.array([0.5, 0.9, 0.99, 0.999, 0.9999])))
        results = [bloch.little_bloch_test(f, radii) for f, radii in cases]
        assert results == [_ring_loop_little_bloch(f, radii) for f, radii in cases]
        assert any(results) and not all(results)


class TestMobius:
    def test_swaps_zero_and_a(self):
        a = 0.4 - 0.3j
        assert bloch.mobius(a, 0.0) == pytest.approx(a)
        assert bloch.mobius(a, a) == pytest.approx(0.0, abs=1e-15)

    def test_involution_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(bloch.mobius(a, bloch.mobius(a, z)) - z) < 1e-12

    def test_preserves_disc(self):
        rng = np.random.default_rng(9)
        a = 0.6 + 0.2j
        z = 0.99 * np.exp(2j * np.pi * rng.uniform(size=32))
        assert np.all(np.abs(bloch.mobius(a, z)) < 1.0 + 1e-12)

    def test_rejects_boundary_a(self):
        with pytest.raises(ValueError):
            bloch.mobius(1.0, 0.5)


class TestInvariantGradient:
    def test_matches_definition(self):
        f = HoloPoly([0, 0, 1])
        z = 0.5
        assert bloch.invariant_gradient_norm(f, z) == pytest.approx(
            (1 - 0.25) * 1.0, abs=1e-14)

    def test_mobius_invariance(self):
        # |(f o phi_a)'| (1 - |z|^2) at z equals |f'| (1 - |w|^2) at w = phi_a(z)
        # checked via the Schwarz-Pick identity on f = z^2
        f = HoloPoly([0, 0, 1])
        a = 0.3 + 0.2j
        z = 0.1 - 0.4j
        w = bloch.mobius(a, z)
        # chain rule: (f o phi)'(z) = f'(w) phi'(z), |phi'(z)| = (1-|a|^2)/|1-conj(a)z|^2
        phi_prime = (abs(a) ** 2 - 1) / (1 - np.conj(a) * z) ** 2
        lhs = (1 - abs(z) ** 2) * abs(f.derivative()(w) * phi_prime)
        rhs = (1 - abs(w) ** 2) * abs(f.derivative()(w))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError):
            bloch.invariant_gradient_norm(HoloPoly([0, 1]), 1.5)


class TestLittleBloch:
    def test_polynomial_is_little(self):
        # invariant gradient of a polynomial decays like (1 - r^2) |f'|
        radii = np.concatenate([np.linspace(0.1, 0.9, 9), [0.99, 0.999, 0.99999]])
        assert bloch.little_bloch_test(HoloPoly([1, 2, 3]), radii)

    def test_constant_is_little(self):
        radii = np.array([0.5, 0.9, 0.99, 0.999])
        assert bloch.little_bloch_test(HoloPoly([7.0]), radii)

    def test_rejects_unordered_radii(self):
        with pytest.raises(ValueError):
            bloch.little_bloch_test(HoloPoly([0, 1]), [0.9, 0.5])

    @pytest.mark.parametrize("scale", [1e-6, 1e-14, 1e-20])
    def test_increasing_tail_fails_at_any_scale(self, scale):
        # (1 - r^2) |(c z^20)'| = 20 |c| r^19 (1 - r^2) increases up to r^2 = 19/21,
        # so the tail over 0.5 .. 0.9 increases however small c is
        coeffs = np.zeros(21)
        coeffs[20] = scale
        assert not bloch.little_bloch_test(HoloPoly(coeffs), np.linspace(0.1, 0.9, 9))

    @pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-20])
    def test_decreasing_tail_holds_at_any_scale(self, scale):
        radii = np.concatenate([np.linspace(0.1, 0.9, 9), [0.99, 0.999, 0.99999]])
        assert bloch.little_bloch_test(HoloPoly([scale, 2 * scale, 3 * scale]), radii)


class TestMultiplier:
    def test_unit_multiplier_norm_one(self):
        rng = np.random.default_rng(6)
        tests = [HoloPoly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
                 for _ in range(5)]
        val = bloch.multiplier_norm_report(HoloPoly([1.0]), tests)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_scalar_multiplier_scales(self):
        tests = [HoloPoly([1, 1]), HoloPoly([0, 0, 1])]
        val = bloch.multiplier_norm_report(HoloPoly([3.0]), tests)
        assert val == pytest.approx(3.0, abs=1e-6)
