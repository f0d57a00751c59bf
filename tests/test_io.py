import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from funcalg.cli import main
from funcalg.io import (
    dump_json,
    format_complex,
    matrix_to_csv,
    parse_coeff_list,
    parse_complex,
    parse_fourier_map,
    parse_symbol_expression,
)


class TestComplexCells:
    def test_format_basic(self):
        assert format_complex(1 + 2j) == "1+2i"
        assert format_complex(1 - 2j) == "1-2i"
        assert format_complex(0.5 + 0j) == "0.5+0i"

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** rng.integers(-8, 9)
            assert parse_complex(format_complex(c)) == c

    def test_parse_plain_real(self):
        assert parse_complex("3.5") == 3.5

    def test_parse_j_form(self):
        assert parse_complex("1+2j") == 1 + 2j


class TestMatrixCsv:
    def test_shape_and_round_trip(self):
        mat = np.array([[1 + 1j, 2], [0, -3j]])
        text = matrix_to_csv(mat)
        rows = [line.split(",") for line in text.strip().split("\n")]
        back = np.array([[parse_complex(c) for c in row] for row in rows])
        np.testing.assert_array_equal(back, mat)

    def test_deterministic(self):
        mat = np.array([[np.pi, np.e], [1 / 3, 2 / 7]], dtype=complex)
        assert matrix_to_csv(mat) == matrix_to_csv(mat.copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            matrix_to_csv(np.array([[1, bad], [0, 1]], dtype=complex))


class TestDumpJson:
    def test_sorted_and_stable(self):
        a = dump_json({"b": 1, "a": 2})
        b = dump_json({"a": 2, "b": 1})
        assert a == b
        assert json.loads(a) == {"a": 2, "b": 1}

    def test_numpy_scalars(self):
        rec = json.loads(dump_json({"x": np.float64(1.5), "n": np.int64(3),
                                    "f": np.bool_(True), "v": np.arange(3)}))
        assert rec == {"x": 1.5, "n": 3, "f": True, "v": [0, 1, 2]}

    def test_complex_serialized_as_cell(self):
        rec = json.loads(dump_json({"c": 1 + 2j}))
        assert rec["c"] == "1+2i"


class TestSymbolParser:
    def test_z_and_conj(self):
        f = parse_symbol_expression("z + 2*conj(z)")
        z = np.array([1j, 0.5])
        np.testing.assert_allclose(f(z), z + 2 * np.conj(z))

    def test_modulus_squared(self):
        f = parse_symbol_expression("|z|^2")
        z = np.array([0.3 + 0.4j])
        np.testing.assert_allclose(f(z), [0.25])

    def test_caret_power(self):
        f = parse_symbol_expression("z^3")
        np.testing.assert_allclose(f(np.array([2.0])), [8.0])

    def test_constant_broadcasts(self):
        f = parse_symbol_expression("1")
        out = f(np.zeros((2, 3), dtype=complex))
        assert out.shape == (2, 3)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            parse_symbol_expression("__import__('os')")
        with pytest.raises(ValueError):
            parse_symbol_expression("exp(z)")

    @pytest.mark.parametrize("expr", [
        "9^9^9^9", "z^(1/2)", "z^65", "2^z", "conj + z", "conj(z, z)", "abs2()",
        "z % 2", "z // 2", "~z", "True*z", "'z'", "z.real", "[z]", "z < 1", "z(1)", "",
    ])
    def test_rejects_outside_grammar(self, expr):
        with pytest.raises(ValueError):
            parse_symbol_expression(expr)

    def test_signed_literal_exponents(self):
        z = np.array([0.5 + 0.5j, -2.0])
        np.testing.assert_array_equal(parse_symbol_expression("z^-2 + z^+64")(z),
                                      z ** -2 + z ** 64)

    def test_samples_bit_identical_to_numpy(self):
        # the benchmark's symbol form evaluates exactly as the same numpy code
        rng = np.random.default_rng(4)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        f = parse_symbol_expression("(0.123-0.456j)*z^2*conj(z)^3 + (1.5+0j)*conj(z)")
        np.testing.assert_array_equal(
            f(z), (0.123 - 0.456j) * z ** 2 * np.conj(z) ** 3 + (1.5 + 0j) * np.conj(z))

    def test_integer_constants_read_as_floats(self):
        # 9^64 stays a float, so nested powers overflow instead of growing
        with pytest.raises(OverflowError):
            parse_symbol_expression("((9^64)^64)^64")(np.zeros(1))


def _disc_grid(n_rad, n_ang):
    rng = np.random.default_rng(5)
    return np.sqrt(rng.random((n_rad, n_ang))) * np.exp(2j * np.pi * rng.random((n_rad, n_ang)))


FOUR_TERMS = ("(0.1+0.2j)*z^3*conj(z)^2 + (0.3-0.1j)*z*conj(z)"
              " + (0.5+0j)*conj(z)^3 + (0.2+0.2j)*z^2")


class TestBlockEvaluation:
    def test_bounded_working_set(self):
        z = _disc_grid(64, 1024)
        f = parse_symbol_expression(FOUR_TERMS)
        tracemalloc.start()
        try:
            out = f(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * 64 * 1024

    @pytest.mark.parametrize("expr", [
        FOUR_TERMS,
        "(0.123-0.456j)*z^2*conj(z)^3 + (1.5+0j)*conj(z)",
        "1/(2 - z^7) - abs2(z)^3*conj(z) + z^-1",
    ])
    def test_value_does_not_depend_on_grid_size(self, expr):
        z = _disc_grid(64, 1024).ravel()
        f = parse_symbol_expression(expr)
        full = f(z)
        for start in (0, 4090, 30000, z.size - 100):
            part = slice(start, start + 100)
            np.testing.assert_array_equal(full[part].view(float), f(z[part]).view(float))

    @pytest.mark.parametrize("expr", ["1/0", "0^-1", "z + 1/0"])
    def test_scalar_division_by_zero_raises(self, expr):
        with pytest.raises(ZeroDivisionError):
            parse_symbol_expression(expr)(np.zeros(3))

    @pytest.mark.parametrize("form", ["sum", "signs", "conj"])
    def test_deep_expressions_evaluate_or_refuse(self, form):
        z = np.array([0.5 + 0.25j, -0.75j])
        for n in sorted({*range(0, 2001, 100), *range(190, 211), *range(990, 1011)}):
            expr = {"sum": "z+" * n + "z", "signs": "-" * n + "z",
                    "conj": "conj(" * n + "z" + ")" * n}[form]
            try:
                f = parse_symbol_expression(expr)
            except ValueError:
                continue
            expected = {"sum": (n + 1) * z, "signs": (-1) ** n * z,
                        "conj": np.conj(z) if n % 2 else z}[form]
            np.testing.assert_array_equal(f(z), expected)

    @pytest.mark.parametrize("expr", ["z+" * 2000 + "z", "-" * 2000 + "z",
                                      "conj(" * 2000 + "z" + ")" * 2000])
    def test_deep_expressions_cli_one_line(self, expr, tmp_path, capsys):
        code = main(["bergman-norm", f"--symbol={expr}", "--out", str(tmp_path / "n.json")])
        out, err = capsys.readouterr()
        assert code in (0, 2)
        assert out == "" and err.count("\n") == (code == 2)
        assert "Traceback" not in err


_CONSTANTS = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.sampled_from(["0.0", "1e300", "2.5j", "1e-300", "(1.5-0.5j)"]),
)
_EXPONENTS = st.one_of(st.sampled_from(["1", "2", "3", "+2", "-1", "-2", "0", "2.0"]),
                       st.integers(-64, 64).map(str),
                       st.floats(-64, 64, allow_nan=False).map(repr))


def _compound(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).flatmap(
            lambda terms: st.lists(st.sampled_from("+-*/"), min_size=len(terms) - 1,
                                   max_size=len(terms) - 1).map(
                lambda ops: terms[0] + "".join(f" {o} {t}" for o, t in zip(ops, terms[1:])))),
        st.tuples(st.sampled_from(["-", "+", "- -"]), children).map("".join),
        st.tuples(st.sampled_from(["conj", "abs2"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from(["^", "**"]), _EXPONENTS).map(
            lambda t: f"({t[0]}){t[1]}{t[2]}"),
        children.map(lambda c: f"({c})"),
    )


_SYMBOLS = st.recursive(st.one_of(st.sampled_from(["z", "|z|^2"]), _CONSTANTS), _compound,
                        max_leaves=10)


def _reference(text, z):
    """The symbol text evaluated by numpy over the whole array at once."""
    env = {"z": z, "conj": np.conj, "abs2": lambda w: np.abs(w) ** 2}
    value = eval(text.replace("|z|^2", "abs2(z)").replace("^", "**"),
                 {"__builtins__": {}}, env)
    return np.broadcast_to(np.asarray(value, dtype=complex), z.shape)


class TestSymbolProperty:
    # constants are float or complex literals, so the reference's integers
    # are the exponents alone, as in the parser
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=_SYMBOLS, size=st.sampled_from([1, 7, 256, 4096]))
    def test_matches_numpy_reference(self, text, size):
        z = _disc_grid(1, size)[0]
        z[0] = 0.0
        with np.errstate(all="ignore"):
            try:
                expected = _reference(text, z)
            except ArithmeticError as exc:
                with pytest.raises(type(exc)):
                    parse_symbol_expression(text)(z)
                return
            np.testing.assert_array_equal(parse_symbol_expression(text)(z), expected)


class TestSmallParsers:
    def test_coeff_list(self):
        np.testing.assert_array_equal(parse_coeff_list("1, 2+1i, -3"),
                                      [1, 2 + 1j, -3])

    def test_fourier_map(self):
        # FFT order: offsets 0, 1, 2, -2, -1
        out = parse_fourier_map("0:1, 1:2+1i, -1:3", 2)
        np.testing.assert_array_equal(out, [1, 2 + 1j, 0, 0, 3])

    def test_fourier_map_drops_offsets_beyond_cutoff(self):
        out = parse_fourier_map("0:1, 5:2, -3:4", 2)
        np.testing.assert_array_equal(out, [1, 0, 0, 0, 0])
