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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError):
            bloch.bloch_seminorm(HoloPoly([0, 0, 1]), alpha)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_monomial_closed_form_in_enclosure(self, n, alpha):
        # sup (1-r^2)^alpha n|c| r^(n-1) is at r^2 = (n-1)/(n-1+2 alpha), or at 0 for n = 1
        c = 0.8 - 1.1j
        rep = bloch.bloch_seminorm(HoloPoly(np.eye(n + 1)[n] * c), alpha)
        r2 = (n - 1) / (n - 1 + 2.0 * alpha)
        closed = n * abs(c) * r2 ** ((n - 1) / 2.0) * (1.0 - r2) ** alpha
        assert rep.converged
        assert rep.seminorm <= closed * (1.0 + 1e-15) and closed <= rep.upper * (1.0 + 1e-15)
        assert rep.upper <= rep.seminorm * (1.0 + bloch.RTOL)

    def test_enclosure_is_within_rtol(self):
        for f, alpha in _random_cases():
            rep = bloch.bloch_seminorm(f, alpha)
            assert rep.converged and rep.seminorm <= rep.upper <= rep.seminorm * (1.0 + bloch.RTOL)

    def test_level_budget_ends_unconverged(self, monkeypatch):
        monkeypatch.setattr(bloch, "LEVELS", 1)
        rep = bloch.bloch_seminorm(HoloPoly([0.3, 1.0, 0.5j, -0.7]), 1.0)
        assert not rep.converged and rep.upper > rep.seminorm * (1.0 + bloch.RTOL)


class TestWeightedSups:
    def test_batch_matches_one_call_each(self):
        # mixed span lengths, with constants, monomials, a zero and a gap below the span
        rng = np.random.default_rng(27)
        ps = [HoloPoly([0.0]), HoloPoly([2.5j]), HoloPoly([0, 0, 0, 1.5 - 1j]),
              HoloPoly([0, 0, 1.0, 0.5j, -2.0])]
        for _ in range(16):
            deg = int(rng.integers(0, 13))
            ps.append(HoloPoly(rng.standard_normal(deg + 1) * [1.0, 1j, 1.0 + 1j][len(ps) % 3]))
        for alpha in (0.5, 1.0, 2.0):
            value, argmax, upper, converged = bloch.weighted_sups(ps, alpha)
            for p, v, z, u, c in zip(ps, value, argmax, upper, converged):
                (v1,), _, (u1,), (c1,) = bloch.weighted_sups([p], alpha)
                assert c and c1
                assert v == pytest.approx(v1, rel=bloch.RTOL, abs=0.0)
                assert u == pytest.approx(u1, rel=bloch.RTOL, abs=0.0)
                assert v == pytest.approx((1.0 - abs(z) ** 2) ** alpha * abs(p(z)),
                                          rel=1e-14, abs=0.0)


def _random_cases(count=20):
    rng = np.random.default_rng(20)
    for _ in range(count):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        yield HoloPoly(coeffs), float(rng.choice([0.5, 1.0, 1.5, 2.0]))


class TestSearchOptimum:
    """The search ends at a value attained at argmax_z that Nelder-Mead cannot improve."""

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


def _ring_max(f_prime, r):
    """Oracle for bloch._circle_max: the best of 4096 equispaced angles on |z| = r,
    refined by a bounded scalar search around it."""
    from scipy.optimize import minimize_scalar

    step = 2.0 * np.pi / 4096

    def mod(t):
        return abs(f_prime(r * np.exp(1j * t)))

    t0 = step * np.argmax(np.abs(f_prime(r * np.exp(1j * step * np.arange(4096)))))
    res = minimize_scalar(lambda t: -mod(t), bounds=(t0 - step, t0 + step), method="bounded",
                          options={"xatol": 1e-12})
    return max(mod(t0), -res.fun)


def _ring_loop_little_bloch(f, radii):
    """Reference for bloch.little_bloch_test: the ring maxima of _ring_max, one radius at a time."""
    fp = f.derivative()
    maxima = np.array([(1.0 - r ** 2) * _ring_max(fp, r) for r in radii])
    tail = maxima[len(maxima) // 2:]
    return bool(maxima[-1] < 1e-3 and np.all(np.diff(tail) <= 1e-12 * np.max(tail)))


class TestCircleMax:
    """M(r) = max |f'| on |z| = r from the companion eigenvalues, checked against a
    dense ring refined by a scalar search."""

    def test_matches_refined_ring(self):
        rng = np.random.default_rng(64)
        radii = np.array([0.0, 1e-3, 0.1, 0.37, 0.5, 0.77, 0.9, 0.999, 1.0])
        for deg in range(1, 9):
            for _ in range(3):
                f = HoloPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
                fp = f.derivative()
                m, theta = bloch._circle_max(fp, radii)
                for r, mr, t in zip(radii, m, theta):
                    assert mr == pytest.approx(_ring_max(fp, r), rel=1e-13, abs=0.0)
                    assert mr == pytest.approx(abs(fp(r * np.exp(1j * t))), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_real_and_imaginary_coefficients(self, unit):
        # real coefficients make w = 1 a critical point on every circle, where the
        # Cayley map of the unturned critical-point polynomial loses a degree
        rng = np.random.default_rng(65)
        radii = np.array([0.0, 1e-3, 0.1, 0.37, 0.5, 0.77, 0.9, 0.999, 1.0])
        for deg in range(1, 12):
            for _ in range(3):
                fp = HoloPoly(unit * rng.standard_normal(deg + 1)).derivative()
                m, theta = bloch._circle_max(fp, radii)
                for r, mr, t in zip(radii, m, theta):
                    assert mr == pytest.approx(_ring_max(fp, r), rel=1e-13, abs=0.0)
                    assert mr == pytest.approx(abs(fp(r * np.exp(1j * t))), rel=1e-14, abs=0.0)

    def test_real_quartic_seminorm(self):
        # an unturned Cayley map read 1.0 here
        rep = bloch.bloch_seminorm(HoloPoly([0.3, -1.0, 0.5, 0.25, -0.7]), 1.0)
        assert rep.converged and rep.seminorm <= rep.upper
        assert rep.seminorm == pytest.approx(1.3261967025827857, rel=1e-12, abs=0.0)


class TestSearchOnMonomials:
    """The radial search on monomials, and little_bloch_test on exact ring maxima."""

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
