"""Serialization helpers shared by the command line: deterministic JSON,
CSV matrix export and the small symbol/polynomial expression parsers."""

from __future__ import annotations

import json
import re

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
    """Row-major CSV of a complex matrix with re+imi cells."""
    mat = np.asarray(mat, dtype=complex)
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


_SYMBOL_TOKEN = re.compile(r"^[\sz0-9+\-*/().^jconjabs|]*$")


def parse_symbol_expression(expr: str):
    """Compile a symbol expression in z, conj(z) and |z|^2 to a grid callable.

    Accepted grammar: complex constants, z, conj(z), abs2(z) or |z|^2,
    arithmetic + - * / ( ) and ^ for powers.
    """
    cleaned = expr.replace("|z|^2", "abs2(z)").replace("|z|**2", "abs2(z)")
    cleaned = cleaned.replace("^", "**")
    if not _SYMBOL_TOKEN.match(cleaned):
        raise ValueError(f"symbol expression contains unsupported characters: {expr!r}")
    code = compile(cleaned, "<symbol>", "eval")
    for name in code.co_names:
        if name not in {"z", "conj", "abs2"}:
            raise ValueError(f"unknown name {name!r} in symbol expression")

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        env = {"z": z, "conj": np.conj, "abs2": lambda w: np.abs(w) ** 2}
        return np.broadcast_to(np.asarray(eval(code, {"__builtins__": {}}, env),
                                          dtype=complex), z.shape).copy()

    return evaluate


def parse_coeff_list(s: str) -> np.ndarray:
    """Comma-separated complex coefficients, lowest degree first."""
    return np.array([parse_complex(tok) for tok in s.split(",") if tok.strip()],
                    dtype=complex)


def parse_fourier_map(s: str) -> dict[int, complex]:
    """Symbol Fourier coefficients as 'k:value' pairs separated by commas."""
    out: dict[int, complex] = {}
    for item in s.split(","):
        if not item.strip():
            continue
        k, val = item.split(":")
        out[int(k)] = parse_complex(val)
    return out
