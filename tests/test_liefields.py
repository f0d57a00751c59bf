import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from funcalg.liefields import (
    MAX_DEGREE,
    FieldError,
    PolyVectorField,
    bracket_via_flows,
    check_lemma_prolongation,
    fields_equal,
    flow,
    format_polynomial,
    from_coeff_map,
    jacobi_sum,
    lie_bracket,
    parse_polynomial,
    prolong1,
)


def field(*comps):
    return PolyVectorField(comps)


class TestPolyVectorField:
    def test_evaluation(self):
        x = field("x1**2", "x1*x2")
        np.testing.assert_allclose(x((2.0, 3.0)), [4.0, 6.0])

    def test_coeff_map_round_trip(self):
        x = from_coeff_map([{(1, 0): 1, (0, 1): -2}, {(1, 1): 3}], 2)
        np.testing.assert_allclose(x((1.0, 1.0)), [-1.0, 3.0])

    def test_rejects_wrong_symbols(self):
        with pytest.raises(FieldError):
            PolyVectorField(["x1 + x3"], dim=1)

    def test_vector_space_ops(self):
        x = field("x1", "x2")
        y = field("1", "x1")
        s = x + 2 * y
        np.testing.assert_allclose(s((3.0, 4.0)), [5.0, 10.0])

    def test_is_zero(self):
        assert PolyVectorField([0, 0]).is_zero()
        assert not field("x1", "0").is_zero()


class TestLieBracket:
    def test_frozen_regression(self):
        # [y d/dx, x d/dy] = y d/dy - x d/dx, i.e. components (-x1, x2)
        x = field("x2", "0")
        y = field("0", "x1")
        br = lie_bracket(x, y)
        assert fields_equal(br, field("-x1", "x2"))

    def test_coordinate_fields_commute(self):
        x = field("1", "0")
        y = field("0", "1")
        assert lie_bracket(x, y).is_zero()

    def test_scaling_field(self):
        # [d/dx, x d/dx] = d/dx
        x = field("1")
        y = field("x1")
        assert fields_equal(lie_bracket(x, y), field("1"))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = from_coeff_map([{tuple(rng.integers(0, 2, 2)): int(rng.integers(-3, 4))}
                                for _ in range(2)], 2)
            b = from_coeff_map([{tuple(rng.integers(0, 2, 2)): int(rng.integers(-3, 4))}
                                for _ in range(2)], 2)
            assert fields_equal(lie_bracket(a, b) + lie_bracket(b, a),
                                PolyVectorField([0, 0]))

    def test_jacobi_exact(self):
        x = field("x1*x2", "x2")
        y = field("x1", "x1**2")
        z = field("x2**2", "x1 + x2")
        total = (lie_bracket(x, lie_bracket(y, z))
                 + lie_bracket(y, lie_bracket(z, x))
                 + lie_bracket(z, lie_bracket(x, y)))
        assert total.is_zero()

    def test_jacobi_sum_is_the_three_term_sum(self):
        x, y, z = field("x1*x2", "x2"), field("x1", "x1**2"), field("x2", "1")
        written_out = (lie_bracket(x, lie_bracket(y, z))
                       + lie_bracket(y, lie_bracket(z, x))
                       + lie_bracket(z, lie_bracket(x, y)))
        assert fields_equal(jacobi_sum(x, y, z), written_out)
        # the terms do not vanish one by one
        assert not lie_bracket(x, lie_bracket(y, z)).is_zero()

    def test_jacobi_sum_vanishes_on_random_integer_fields(self):
        rng = np.random.default_rng(3)

        def rand_field():
            return from_coeff_map([{tuple(int(e) for e in rng.integers(0, 3, 2)):
                                    int(rng.integers(-3, 4)) for _ in range(3)}
                                   for _ in range(2)], 2)

        for _ in range(20):
            assert jacobi_sum(rand_field(), rand_field(), rand_field()).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(FieldError):
            lie_bracket(field("x1"), field("x1", "x2"))


class TestFlow:
    def test_linear_field_exponential(self):
        # flow of x d/dx from 1 over time 1 is e
        x = field("x1")
        end, _ = flow(x, [1.0], 1.0)
        assert end[0] == pytest.approx(np.e, abs=1e-8)

    def test_constant_field_translation(self):
        x = field("1", "0")
        np.testing.assert_allclose(flow(x, [0.0, 2.0], 0.7)[0], [0.7, 2.0], atol=1e-12)

    def test_rotation_field(self):
        # flow of -y d/dx + x d/dy rotates by angle t
        x = field("-x2", "x1")
        end, _ = flow(x, [1.0, 0.0], np.pi / 3)
        np.testing.assert_allclose(end, [0.5, np.sqrt(3) / 2], atol=1e-9)

    def test_group_property(self):
        x = field("x1*x2", "x2 - x1")
        direct, _ = flow(x, [0.3, -0.2], 0.5)
        composed, _ = flow(x, flow(x, [0.3, -0.2], 0.2)[0], 0.3)
        np.testing.assert_allclose(direct, composed, atol=1e-8)

    def test_divergence_guard(self):
        # dx/dt = x^2 from x = 1 blows up at t = 1
        with pytest.raises(FieldError):
            flow(field("x1**2"), [1.0], 2.0)


class TestBracketViaFlows:
    def test_matches_symbolic(self):
        # sign convention oracle: X = d/dx, Y = x d/dx gives [X, Y] = d/dx, so
        # the flow commutator over t must approach +1
        x = field("1")
        y = field("x1")
        approx = bracket_via_flows(x, y, [0.5], 0.05)
        assert approx[0] == pytest.approx(1.0, abs=0.1)

    def test_first_order_convergence(self):
        x = field("x1 - 2*x2", "x1*x2")
        y = field("x2", "x1**2 + 1")
        target = lie_bracket(x, y)((0.3, -0.2))
        errs = [np.linalg.norm(bracket_via_flows(x, y, (0.3, -0.2), t) - target)
                for t in (0.1, 0.05, 0.025)]
        slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_rejects_large_t(self):
        with pytest.raises(FieldError):
            bracket_via_flows(field("1"), field("x1"), [0.0], 0.5)


class TestProlongation:
    def test_morphism_exact(self):
        x = field("x1*x2", "x2**2")
        y = field("x1 + 1", "x1*x2 - x2")
        rep = check_lemma_prolongation(x, y)
        assert rep["exact"]
        assert rep["max_coeff_diff"] == 0.0

    def test_matrix_part_is_jacobian_action(self):
        # d = 1: field x1^2 d/dx has Jacobian 2 x1; matrix part = 2 x1 a1_1,
        # a polynomial in the variables (x1, a1_1)
        p = prolong1(field("x1**2"))
        assert p.matrix_part == ({(1, 1): 2},)

    def test_linear_fields_morphism(self):
        # linear fields close under bracket; prolongation must match exactly
        x = field("x2", "-x1")
        y = field("x1", "x2")
        rep = check_lemma_prolongation(x, y)
        assert rep["exact"]

    def test_matrix_part_two_dims(self):
        # X = (x1 x2, x2^2): JX = [[x2, x1], [0, 2 x2]], (JX A)_ij = sum_k JX_ik a_kj
        # over the variables (x1, x2, a11, a12, a21, a22)
        p = prolong1(field("x1*x2", "x2**2"))
        assert p.matrix_part == (
            {(0, 1, 1, 0, 0, 0): 1, (1, 0, 0, 0, 1, 0): 1},
            {(0, 1, 0, 1, 0, 0): 1, (1, 0, 0, 0, 0, 1): 1},
            {(0, 1, 0, 0, 1, 0): 2},
            {(0, 1, 0, 0, 0, 1): 2},
        )


def random_poly(rng, d, fractions):
    monos = [e for e in itertools.product(range(4), repeat=d) if sum(e) <= 3]
    poly = {}
    for e in rng.sample(monos, rng.randint(0, min(5, len(monos)))):
        c = rng.randint(-9, 9)
        if fractions and rng.random() < 0.5:
            c = Fraction(c, rng.randint(2, 7))
        if c:
            poly[e] = c.numerator if c.denominator == 1 else c
    return poly


class TestText:
    def test_print_parse_round_trip(self):
        rng = random.Random(0)
        for fractions in (False, True):
            for _ in range(300):
                d = rng.randint(1, 3)
                x = PolyVectorField([random_poly(rng, d, fractions) for _ in range(d)])
                texts = [format_polynomial(c) for c in x.components]
                assert PolyVectorField(texts) == x, texts

    def test_printed_text_is_python(self):
        # the CLI text evaluates as Python to the exact value at integer points
        x = PolyVectorField([{(2, 1): Fraction(-3, 2), (0, 0): 1}, {(0, 1): 4, (1, 0): -1}])
        texts = [format_polynomial(c) for c in x.components]
        assert texts == ["-3*x1**2*x2/2 + 1", "-x1 + 4*x2"]
        for p in ((2, -3), (0, 5), (-7, 1)):
            got = [eval(t, {"__builtins__": {}}, {"x1": p[0], "x2": p[1]}) for t in texts]
            assert got == list(x(p))

    @pytest.mark.parametrize("comps, text", [
        (["-x1", "x2"], ["-x1", "x2"]),
        (["0", "1 - x1"], ["0", "1 - x1"]),
        (["x1*x2 - 1", "3/2 - 2*x2**2"], ["x1*x2 - 1", "3/2 - 2*x2**2"]),
        (["(x1 + 1)**2", "-(x2 - x1)/4"], ["x1**2 + 2*x1 + 1", "x1/4 - x2/4"]),
    ])
    def test_printer_format(self, comps, text):
        assert [format_polynomial(c) for c in PolyVectorField(comps).components] == text

    @pytest.mark.parametrize("text", [
        "x3", "y", "exp(x1)", "0.5*x1", "x1/x2", "x1/0", "x1**x2", "x1**-1",
        f"x1**{MAX_DEGREE + 1}", "(x1*x2)**40", "x1 +", "__import__('os')", "x1[0]", "2**2**2",
    ])
    def test_parser_rejects(self, text):
        with pytest.raises(FieldError):
            parse_polynomial(text, 2)

    def test_coefficient_inputs(self):
        x = from_coeff_map([{(1,): "1/2", (0,): 0.1}], 1)
        assert x.components == ({(1,): Fraction(1, 2), (0,): Fraction(1, 10)},)
        for bad in (float("nan"), float("inf"), "abc", 1j):
            with pytest.raises(FieldError):
                from_coeff_map([{(1,): bad}], 1)
        with pytest.raises(FieldError):
            from_coeff_map([{(-1,): 1}], 1)


class TestExactArithmetic:
    def test_fraction_coefficient_stays_exact(self):
        # [x1/3 d/dx, x1^2/7 d/dx] = (x1/3 * 2 x1/7 - x1^2/7 * 1/3) d/dx = x1^2/21 d/dx
        x = PolyVectorField([{(1,): Fraction(1, 3)}])
        y = PolyVectorField([{(2,): Fraction(1, 7)}])
        br = lie_bracket(x, y)
        assert br.components == ({(2,): Fraction(1, 21)},)
        assert isinstance(br.components[0][(2,)], Fraction)
        assert lie_bracket(y, x) == -1 * br

    def test_rational_scaling_is_exact(self):
        x = field("x1/3", "x2")
        assert (3 * x).components == ({(1, 0): 1}, {(0, 1): 3})
        assert (x * Fraction(1, 3) + x * Fraction(2, 3)) == x

    def test_evaluation_is_exact_then_rounded(self):
        # (2^27 + 1)^2 - 2^54 = 2^28 + 1, while float arithmetic rounds the
        # square to 2^54 + 2^28 first and returns 2^28
        y = field(f"x1**2 - {2 ** 54}")
        assert y((2 ** 27 + 1,))[0] == 2.0 ** 28 + 1
        assert y((2.0 ** 27 + 1,))[0] == 2.0 ** 28 + 1
        with pytest.raises(FieldError):
            y((float("nan"),))
        with pytest.raises(FieldError):
            y((1.0, 2.0))


class TestFlowErrorEstimate:
    def test_estimate_is_returned_and_tracks_error(self):
        end, err = flow(field("x1"), [1.0], 1.0)
        actual = abs(end[0] - np.e)
        assert 0 < err < 1e-9
        assert actual < 10 * err + 1e-15

    def test_point_dimension_checked(self):
        with pytest.raises(FieldError):
            flow(field("x1", "x2"), [1.0], 0.1)


def within_estimate(end, err, exact):
    """The error estimate is positive and covers the actual error."""
    return err > 0 and np.max(np.abs(np.asarray(end) - exact)) < 10 * err + 1e-15


class TestFlowClosedForms:
    @pytest.mark.parametrize("comps, start, t, exact", [
        (["x1**2"], [1.0], 0.9, [10.0]),                        # x = 1 / (1 - t)
        (["1 + x1**2"], [0.0], 1.2, [math.tan(1.2)]),
        (["-x2", "x1"], [1.0, 0.0], math.pi / 2, [math.cos(math.pi / 2), 1.0]),
        (["-x2", "x1"], [1.0, 0.0], 2 * math.pi, [1.0, math.sin(2 * math.pi)]),
        # 1e4 radians: ~9000 steps, inside the work budget
        (["-100000*x2", "100000*x1"], [1.0, 0.0], 0.1, [math.cos(1e4), math.sin(1e4)]),
    ], ids=["blow-up-curve", "tan", "quarter-turn", "full-turn", "fast-rotation"])
    def test_closed_form(self, comps, start, t, exact):
        end, err = flow(PolyVectorField(comps), start, t)
        assert within_estimate(end, err, exact), (end, err)

    def test_degree_63_rotation(self):
        # (x1^2 + x2^2)^31 = 1 on the unit circle, so this turns (1, 0) by 10 radians.
        # The angular speed grows like r^62 off the circle, and the estimate does not
        # follow rounding errors through that shear, so the check is absolute.
        r = "(x1**2 + x2**2)**31"
        end, err = flow(PolyVectorField([f"-1000*x2*{r}", f"1000*x1*{r}"]), [1.0, 0.0], 0.01)
        assert err > 0
        np.testing.assert_allclose(end, [math.cos(10.0), math.sin(10.0)], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("t", [1.0, -0.7])
    def test_linear_field_matches_expm(self, t):
        a = np.array([[0, 2, -1], [-2, 0, 1], [1, -1, -1]])
        x = from_coeff_map([{tuple(int(j == k) for k in range(3)): int(a[i, j])
                             for j in range(3) if a[i, j]} for i in range(3)], 3)
        start = np.array([0.3, -0.5, 0.8])
        end, err = flow(x, start, t)
        assert within_estimate(end, err, expm(t * a) @ start), (end, err)

    def test_fraction_coefficient(self):
        for x in (PolyVectorField([{(1,): Fraction(1, 3)}]), field("x1/3")):
            end, err = flow(x, [1.5], 1.0)
            assert within_estimate(end, err, [1.5 * math.exp(1 / 3)]), (end, err)

    def test_zero_trajectory_has_positive_estimate(self):
        end, err = flow(field("x1**2"), [0.0], 1.0)
        assert end[0] == 0.0 and err > 0

    def test_negative_time_inverts(self):
        x = field("x1*x2", "x2 - x1")
        there, err_there = flow(x, [0.3, -0.2], 0.5)
        back, err_back = flow(x, there, -0.5)
        assert within_estimate(back, err_there + err_back, [0.3, -0.2])

    def test_series_with_vanishing_top_orders(self):
        # x' = 1 + x^4 from 0 has terms only at orders 1, 5, 9, 13, 17, 21, .., so
        # orders 19 and 20 vanish although the radius is only ~1.1.  The time to
        # reach x is F(x) = int_0^x du / (1 + u^4), in closed form.
        def f(x):
            r = math.sqrt(2)
            return ((math.atan(r * x + 1) + math.atan(r * x - 1)) / (2 * r)
                    + math.log((x * x + r * x + 1) / (x * x - r * x + 1)) / (4 * r))
        exact = brentq(lambda x: f(x) - 1.0, 1.0, 2.0, xtol=1e-16, rtol=1e-15)
        end, err = flow(field("1 + x1**4"), [0.0], 1.0)
        assert within_estimate(end, err, [exact]), (end, err, exact)

    def test_polynomial_solution_past_the_order(self):
        # x1 = t, x2 = t^3/3, x3 = t^7/63, x4 = t^15/(15*63^2), x5 = t^31/(31*15^2*63^4):
        # no series term of orders 16..20 is non-zero, yet x5 has degree 31
        t = 3.0
        exact = [t, t ** 3 / 3, t ** 7 / 63, t ** 15 / (15 * 63 ** 2),
                 t ** 31 / (31 * 15 ** 2 * 63 ** 4)]
        end, err = flow(field("1", "x1**2", "x2**2", "x3**2", "x4**2"), [0.0] * 5, t)
        assert within_estimate(end, err, exact), (end, err)

    def test_high_degree_fields_flow(self):
        # powers are built by squaring, so degree 1e8 needs ~50 series; 0.5^1e8 = 0
        end, err = flow(from_coeff_map([{(10 ** 8,): 1}], 1), [0.5], 0.1)
        assert end[0] == 0.5 and err > 0
        end, err = flow(from_coeff_map([{(MAX_DEGREE,): 1}], 1), [0.5], 0.1)
        assert within_estimate(end, err, [0.5])   # moves by ~0.1 * 2^-64
        # x' = x^100: x^-99 = x0^-99 - 99 t
        end, err = flow(from_coeff_map([{(100,): 1}], 1), [0.9], 200.0)
        assert within_estimate(end, err, [(0.9 ** -99 - 99 * 200.0) ** (-1 / 99)]), (end, err)

    def test_large_field_gets_one_step(self):
        # sum_{k < 10^4} x^k = 1 / (1 - x) in floats for x near 0.1, so
        # (1 - x)^2 = (1 - x0)^2 - 2t.  The field needs ~10^4 series, more than
        # WORK_BUDGET pays for in one step, and t is small enough for one step.
        x = from_coeff_map([{(k,): 1 for k in range(10 ** 4)}], 1)
        end, err = flow(x, [0.1], 0.01)
        assert within_estimate(end, err, [1 - math.sqrt(0.81 - 0.02)]), (end, err)
        with pytest.raises(FieldError, match="more than 1 Taylor steps"):
            flow(x, [0.1], 0.2)

    @pytest.mark.parametrize("comps, steps", [
        # a rotation at 1e9 needs ~1e8 steps over t = 0.1: refused, not run
        (["-1000000000*x2", "1000000000*x1"], 20000),
        # each step of a degree-63 field costs ~190 Cauchy products, so fewer are allowed
        (["-1000000*x2*(x1**2 + x2**2)**31", "1000000*x1*(x1**2 + x2**2)**31"], 49),
    ], ids=["linear", "degree-63"])
    def test_work_budget_bounds_a_fast_field(self, comps, steps):
        start = time.perf_counter()
        with pytest.raises(FieldError, match=f"more than {steps} Taylor steps"):
            flow(PolyVectorField(comps), [1.0, 0.0], 0.1)
        assert time.perf_counter() - start < 20
