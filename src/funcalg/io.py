"""Serialization helpers shared by the command line: deterministic JSON,
CSV matrix export and the small symbol/polynomial expression parsers."""

from __future__ import annotations

import ast
import json

import numpy as np


def format_complex(c: complex) -> str:
    """Round-trippable complex cell: re+imi with 17 significant digits."""
    re_part = f"{c.real:.17g}"
    im_part = f"{abs(c.imag):.17g}"
    sign = "-" if c.imag < 0 else "+"
    return f"{re_part}{sign}{im_part}i"


def parse_complex(s: str) -> complex:
    """Inverse of :func:`format_complex`; also accepts plain reals and 'j' forms."""
    s = s.strip().replace(" ", "")
    if s.endswith("i") and not s.endswith("j"):
        s = s[:-1] + "j"
    return complex(s)


def matrix_to_csv(mat: np.ndarray) -> str:
    """Row-major CSV of a complex matrix with re+imi cells.  Raises ValueError
    on NaN or infinity, as :func:`dump_json` does."""
    mat = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix holds NaN or infinity")
    lines = [",".join(format_complex(c) for c in row) for row in mat]
    return "\n".join(lines) + "\n"


def dump_json(record: dict) -> str:
    """Deterministic strict JSON: sorted keys, fixed separators, trailing
    newline.  Raises ValueError on NaN or infinity, which JSON cannot hold."""
    return json.dumps(record, sort_keys=True, separators=(", ", ": "),
                      default=_json_default, indent=2, allow_nan=False) + "\n"


def _json_default(obj):
    if isinstance(obj, complex):
        return format_complex(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


_SYMBOL_FUNCS = {"conj": np.conj, "abs2": lambda w: np.abs(w) ** 2}
_SYMBOL_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_SIGNS = (ast.UAdd, ast.USub)


def parse_symbol_expression(expr: str):
    """Compile a symbol expression in z, conj(z) and |z|^2 to a grid callable.

    Accepted grammar: numeric constants, z, conj(.) and abs2(.) of one
    argument, |z|^2, + - * / with unary signs, and ^ or ** to a numeric literal
    power of modulus at most 64.  Integer constants other than exponents are
    read as floats, so no subexpression grows into an unbounded integer.
    """
    cleaned = expr.replace("|z|^2", "abs2(z)").replace("|z|**2", "abs2(z)")
    try:
        tree = ast.parse(cleaned.replace("^", "**"), mode="eval")
        _check_symbol_node(tree.body)
        code = compile(tree, "<symbol>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot parse symbol expression: {exc}") from None

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        env = {"z": z, **_SYMBOL_FUNCS}
        return np.broadcast_to(np.asarray(eval(code, {"__builtins__": {}}, env),
                                          dtype=complex), z.shape).copy()

    return evaluate


def _check_symbol_node(node) -> None:
    """Raise ValueError unless node lies in the symbol grammar; turns integer
    constants other than exponents into floats."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        e = node.right
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, _SIGNS):
            e = e.operand
        if not (_is_number(e) and abs(e.value) <= 64):
            raise ValueError("an exponent must be a numeric literal of modulus <= 64")
        _check_symbol_node(node.left)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _SYMBOL_BINOPS):
        _check_symbol_node(node.left)
        _check_symbol_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
        _check_symbol_node(node.operand)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _SYMBOL_FUNCS and len(node.args) == 1 and not node.keywords):
        _check_symbol_node(node.args[0])
    elif _is_number(node):
        if isinstance(node.value, int):
            node.value = float(node.value)
    elif not (isinstance(node, ast.Name) and node.id == "z"):
        raise ValueError(f"unsupported {ast.unparse(node)[:40]!r} in symbol expression")


def _is_number(node) -> bool:
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float, complex)))


def parse_coeff_list(s: str) -> np.ndarray:
    """Comma-separated complex coefficients, lowest degree first."""
    return np.array([parse_complex(tok) for tok in s.split(",") if tok.strip()],
                    dtype=complex)


def parse_fourier_map(s: str, n: int) -> np.ndarray:
    """Symbol Fourier coefficients from 'k:value' pairs separated by commas, as
    a length-(2n+1) array in FFT order; offsets with |k| > n are dropped."""
    out = np.zeros(2 * n + 1, dtype=complex)
    for item in s.split(","):
        if not item.strip():
            continue
        k, val = item.split(":")
        k, c = int(k), parse_complex(val)
        if abs(k) <= n:
            out[k] = c
    return out
