"""Serialization helpers shared by the command line: deterministic JSON,
CSV matrix export and the small symbol/polynomial expression parsers.

A symbol expression is compiled once into closures, which the returned
callable runs over the grid in blocks of ``_BLOCK`` points.  Every temporary
is then 64 KiB, whatever the grid size, and a node's value does not depend
on the grid it is sampled on.
"""

from __future__ import annotations

import ast
import json
import operator

import numpy as np

# flat points per evaluation block: a complex temporary of 64 KiB stays below
# glibc's 128 KiB mmap threshold and numpy's 256 KiB temporary elision
_BLOCK = 4096


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
_SYMBOL_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                  ast.Mult: operator.mul, ast.Div: operator.truediv}
_SIGNS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def parse_symbol_expression(expr: str):
    """Compile a symbol expression in z, conj(z) and |z|^2 to a grid callable.

    Accepted grammar: numeric constants, z, conj(.) and abs2(.) of one
    argument, |z|^2, + - * / with unary signs, and ^ or ** to a numeric literal
    power of modulus at most 64.  Integer constants other than exponents are
    read as floats, so no subexpression grows into an unbounded integer.
    Arithmetic on constants alone keeps Python's semantics: 1/0 raises
    ZeroDivisionError and an overflowing power OverflowError when evaluated.

    The callable fills its output in blocks of ``_BLOCK`` flat points, so a
    node's value is the same on any grid that holds it.
    """
    cleaned = expr.replace("|z|^2", "abs2(z)").replace("|z|**2", "abs2(z)")
    try:
        run = _compile_symbol(ast.parse(cleaned.replace("^", "**"), mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot parse symbol expression: {exc}") from None

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        flat_z, flat_out = z.reshape(-1), out.reshape(-1)
        # at least one block, so an empty grid still raises 1/0
        for i in range(0, max(z.size, 1), _BLOCK):
            flat_out[i:i + _BLOCK] = run(flat_z[i:i + _BLOCK])
        return out

    return evaluate


def _compile_symbol(node):
    """Closure w -> value of node; raise ValueError unless node lies in the
    symbol grammar.  A chain of binary operators becomes one loop and a run
    of signs at most one negation, so a long sum nests no calls."""
    if isinstance(node, ast.BinOp) and type(node.op) in _SYMBOL_BINOPS:
        spine = []
        while isinstance(node, ast.BinOp) and type(node.op) in _SYMBOL_BINOPS:
            spine.append(node)
            node = node.left
        first = _compile_symbol(node)
        steps = [(_SYMBOL_BINOPS[type(n.op)], _compile_symbol(n.right))
                 for n in reversed(spine)]

        def chain(w):
            acc = first(w)
            for op, term in steps:
                acc = op(acc, term(w))
            return acc
        return chain
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        negate = False          # negation is exact, so only the parity counts
        while isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
            negate ^= isinstance(node.op, ast.USub)
            node = node.operand
        operand = _compile_symbol(node)
        return (lambda w: -operand(w)) if negate else operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        e = node.right
        sign = operator.pos
        if isinstance(e, ast.UnaryOp) and type(e.op) in _SIGNS:
            sign, e = _SIGNS[type(e.op)], e.operand
        if not (_is_number(e) and abs(e.value) <= 64):
            raise ValueError("an exponent must be a numeric literal of modulus <= 64")
        return _power(_compile_symbol(node.left), sign(e.value))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _SYMBOL_FUNCS and len(node.args) == 1 and not node.keywords):
        func, arg = _SYMBOL_FUNCS[node.func.id], _compile_symbol(node.args[0])
        return lambda w: func(arg(w))
    if _is_number(node):
        value = float(node.value) if isinstance(node.value, int) else node.value
        return lambda w: value
    if isinstance(node, ast.Name) and node.id == "z":
        return lambda w: w
    raise ValueError(f"unsupported {ast.unparse(node)[:40]!r} in symbol expression")


def _power(base, e):
    """Closure w -> base(w) ** e.  An array to the integer power 1 or 2 is
    itself or its product with itself, numpy's bits without its general
    power; everything else is ``**``, so scalars keep Python's errors."""
    if type(e) is not int or e not in (1, 2):
        return lambda w: base(w) ** e

    def power(w):
        x = base(w)
        if isinstance(x, np.ndarray):
            return x if e == 1 else x * x
        return x ** e
    return power


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
