"""Polynomial vector fields on R^d: exact Lie brackets, numeric flows,
flow-commutator cross-validation and first-order prolongation to the frame
bundle.

A component is a sparse polynomial ``{exponent tuple: int | Fraction}`` with
no zero coefficients, so brackets and prolongations use exact rational
arithmetic and algebraic identities (antisymmetry, Jacobi, the prolongation
morphism property) are checked by equality; only the flows are numeric.
Text components are read by :func:`parse_polynomial` and printed by
:func:`format_polynomial` in one grammar.
"""

from __future__ import annotations

import ast
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class FieldError(ValueError):
    """Raised for dimension mismatches, malformed components or diverging flows."""


# ---------------------------------------------------------------------------
# sparse polynomials in any number of variables
# ---------------------------------------------------------------------------

def _clean(poly: dict) -> dict:
    return {e: c for e, c in poly.items() if c}


def _padd(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _pmul(p: dict, q: dict, out: dict | None = None, sign: int = 1) -> dict:
    """p * q, or ``out += sign * p * q`` in place (left uncleaned) when out is given."""
    acc = {} if out is None else out
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + sign * c1 * c2
    return _clean(acc) if out is None else acc


def _pdiff(p: dict, v: int) -> dict:
    return {e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v] for e, c in p.items() if e[v]}


def _bracket(fx: list, fy: list) -> list:
    """[X, Y]_i = sum_j X_j dY_i/dx_j - Y_j dX_i/dx_j on component lists."""
    n = len(fx)
    out = []
    for i in range(n):
        acc: dict = {}
        for j in range(n):
            _pmul(fx[j], _pdiff(fy[i], j), acc)
            _pmul(fy[j], _pdiff(fx[i], j), acc, -1)
        out.append(_clean(acc))
    return out


def _coeff(c):
    """An exact coefficient.  Ints stay ints; a float is read as the decimal
    it prints as and a string as a ratio or decimal; integral ratios become ints."""
    if isinstance(c, numbers.Integral):
        return int(c)
    try:
        if isinstance(c, numbers.Real) and not isinstance(c, numbers.Rational):
            c = repr(float(c))
        c = Fraction(c)
    except (TypeError, ValueError, OverflowError):
        raise FieldError(f"coefficient {c!r} is not a finite rational") from None
    return c.numerator if c.denominator == 1 else c


def _names(d: int) -> list[str]:
    return [f"x{i}" for i in range(1, d + 1)]


MAX_DEGREE = 64


def parse_polynomial(text: str, d: int) -> dict:
    """Read a polynomial in x1..xd.

    Grammar: integer constants, the names x1..xd, + - * / and unary minus,
    parentheses, and ** with an integer-literal exponent.  Division is by a
    nonzero constant only, and no power may have degree above MAX_DEGREE.
    """
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        raise FieldError(f"cannot parse component {text!r}") from None
    index = {name: i for i, name in enumerate(_names(d))}
    one = (0,) * d

    def constant(p: dict):
        if set(p) - {one}:
            raise FieldError(f"only constant divisors are allowed in {text!r}")
        return p.get(one, 0)

    def walk(node) -> dict:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return _clean({one: node.value})
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise FieldError(f"component {text!r} uses unknown name {node.id!r}")
            return {tuple(int(k == index[node.id]) for k in range(d)): 1}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            p = walk(node.operand)
            return p if isinstance(node.op, ast.UAdd) else {e: -c for e, c in p.items()}
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, n = walk(node.left), node.right
            if not (isinstance(n, ast.Constant) and type(n.value) is int
                    and 0 <= n.value <= MAX_DEGREE):
                raise FieldError(f"exponents must be integers in 0..{MAX_DEGREE}: {text!r}")
            if max((sum(e) for e in base), default=0) * n.value > MAX_DEGREE:
                raise FieldError(f"degree above {MAX_DEGREE} in {text!r}")
            out = {one: 1}
            for _ in range(n.value):
                out = _pmul(out, base)
            return out
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub,
                                                                ast.Mult, ast.Div)):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return _padd(left, right)
            if isinstance(node.op, ast.Sub):
                return _padd(left, right, -1)
            if isinstance(node.op, ast.Mult):
                return _pmul(left, right)
            div = constant(right)
            if not div:
                raise FieldError(f"division by zero in {text!r}")
            return {e: _coeff(Fraction(c) / div) for e, c in left.items()}
        raise FieldError(f"unsupported syntax in component {text!r}")

    return walk(tree.body)


def format_polynomial(poly: dict) -> str:
    """Print a polynomial in the grammar of :func:`parse_polynomial`, terms in
    descending lexicographic order of exponents: "-x1**2*x2 + 3*x2/2 - 1".
    To keep the established CLI text, a positive constant minus a power of
    one variable puts the constant first: "1 - 2*x1**2" (but "-x1*x2 + 1")."""
    order = sorted(poly, reverse=True)
    if (len(order) == 2 and not any(order[1]) and poly[order[1]] > 0 > poly[order[0]]
            and sum(map(bool, order[0])) == 1):
        order.reverse()
    out = ""
    for e in order:
        c = Fraction(poly[e])
        num, den = abs(c.numerator), c.denominator
        mono = "*".join(f"x{i}" + (f"**{k}" if k > 1 else "")
                        for i, k in enumerate(e, 1) if k)
        body = (f"{num}*{mono}" if num != 1 else mono) if mono else str(num)
        body += f"/{den}" if den != 1 else ""
        out += (f" {'-' if c < 0 else '+'} " if out else "-" * (c < 0)) + body
    return out or "0"


def _component(c, d: int) -> dict:
    if isinstance(c, str):
        return parse_polynomial(c, d)
    if not isinstance(c, dict):
        return _clean({(0,) * d: _coeff(c)})
    out: dict = {}
    for expts, coeff in c.items():
        e = tuple(int(k) for k in expts)
        if len(e) != d or min(e, default=0) < 0:
            raise FieldError(f"exponent tuple {tuple(expts)} is not {d} nonnegative integers")
        out[e] = out.get(e, 0) + _coeff(coeff)
    return _clean(out)


def _exact(v):
    if isinstance(v, numbers.Integral):
        return int(v)
    try:
        return Fraction(float(v))
    except (ValueError, OverflowError):
        raise FieldError(f"point coordinate {v!r} is not finite") from None


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyVectorField:
    """Vector field sum_i components[i] * d/dx_i with polynomial components.

    A component may be given as an ``{exponent tuple: coefficient}`` map, a
    number, or text in x1..xd; it is stored as a sparse exact polynomial.
    """

    dim: int
    components: tuple

    def __init__(self, components, dim: int | None = None):
        comps = tuple(components)
        d = dim if dim is not None else len(comps)
        if len(comps) != d:
            raise FieldError(f"expected {d} components, got {len(comps)}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "components", tuple(_component(c, d) for c in comps))

    def __call__(self, point) -> np.ndarray:
        """Exact value at the point (floats are taken at their binary value),
        rounded to float once at the end."""
        xs = [_exact(v) for v in point]
        if len(xs) != self.dim:
            raise FieldError(f"point has {len(xs)} coordinates, field has dimension {self.dim}")
        return np.array([float(sum(c * math.prod(x ** k for x, k in zip(xs, e))
                                   for e, c in comp.items()))
                         for comp in self.components])

    def is_zero(self) -> bool:
        return not any(self.components)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if other.dim != self.dim:
            raise FieldError("dimension mismatch")
        return PolyVectorField([_padd(a, b) for a, b in zip(self.components, other.components)],
                               dim=self.dim)

    def __mul__(self, scalar) -> "PolyVectorField":
        s = _coeff(scalar)
        return PolyVectorField([{e: s * c for e, c in comp.items()} for comp in self.components],
                               dim=self.dim)

    __rmul__ = __mul__


def from_coeff_map(maps: list[dict], d: int | None = None) -> PolyVectorField:
    """Build a field from one {exponent-tuple: coefficient} map per component."""
    return PolyVectorField(maps, dim=d)


def lie_bracket(x_field: PolyVectorField, y_field: PolyVectorField) -> PolyVectorField:
    """[X, Y]_i = sum_j (X_j dY_i/dx_j - Y_j dX_i/dx_j), exact."""
    if x_field.dim != y_field.dim:
        raise FieldError("dimension mismatch")
    return PolyVectorField(_bracket(x_field.components, y_field.components), dim=x_field.dim)


def jacobi_sum(x: PolyVectorField, y: PolyVectorField, z: PolyVectorField) -> PolyVectorField:
    """[X, [Y, Z]] + [Y, [Z, X]] + [Z, [X, Y]], exact; zero by the Jacobi identity."""
    return (lie_bracket(x, lie_bracket(y, z)) + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y)))


def fields_equal(a: PolyVectorField, b: PolyVectorField) -> bool:
    """Exact coefficientwise equality."""
    return a.dim == b.dim and a.components == b.components


OVERFLOW_GUARD = 1e8
TAYLOR_ORDER = 20           # degree of the series summed at each step
STEP_SAFETY = math.e ** 2   # step = (radius read off the series' top coefficients) / e^2
WORK_BUDGET = 2_000_000     # multiplications per flow: 20 000 steps of a plane rotation
MAX_FLOW_T = 0.1            # bracket_via_flows takes t in (0, MAX_FLOW_T]


def _taylor_plan(field: PolyVectorField):
    """The monomials the components use, each the product of two slots before it.

    Slot 0 is the constant 1 and slot 1 + v is x_v.  A power x_v^k is built
    by squaring, from x_v^(k/2) twice or from x_v^(k-1) and x_v, and any other
    monomial from itself without its last variable and that variable's power,
    so a term of degree k needs at most d + 2 log2(k) slots.  ``build`` lists
    the (left, right) slots of each further slot in order; ``terms`` holds
    each component as (slot, float coefficient) pairs.
    """
    d = field.dim
    slots = {(0,) * d: 0}
    slots.update({tuple(int(k == v) for k in range(d)): 1 + v for v in range(d)})
    build = []

    def add(e, left, right):
        if e not in slots:
            build.append((left, right))
            slots[e] = len(slots)
        return slots[e]

    def power(v, k):            # x_v^k by squaring, so O(log k) slots
        acc, j = 1 + v, 1
        for bit in bin(k)[3:]:
            j *= 2
            acc = add((0,) * v + (j,) + (0,) * (d - v - 1), acc, acc)
            if bit == "1":
                j += 1
                acc = add((0,) * v + (j,) + (0,) * (d - v - 1), acc, 1 + v)
        return acc

    def slot(e):
        prefix, left = [0] * d, 0           # left: the slot of e's part up to variable v
        for v, k in enumerate(e):
            if k:
                prefix[v] = k
                left = power(v, k) if left == 0 else add(tuple(prefix), left, power(v, k))
        return left

    terms = [[(slot(e), float(c)) for e, c in comp.items()] for comp in field.components]
    return build, terms


def flow(field: PolyVectorField, point, t: float):
    """Taylor-series integration of the flow of the field from point over time t.

    Each step sums the solution's series to order TAYLOR_ORDER by Horner.  The
    coefficients are exact consequences of the field, x_(n+1) = [X(x)]_n / (n+1),
    and the n-th coefficient of a monomial is one Cauchy product of the series
    of the two slots it is built from.  The step is min_m |x_m|^(-1/m) /
    STEP_SAFETY over the two highest orders m with x_m != 0 (Jorba & Zou, Exp.
    Math. 14, 2005), a multiple of ulp(t) so that the elapsed time is exact.

    Returns ``(endpoint, error_estimate)``.  The estimate sums, over the steps,
    the series tail extrapolated from those two orders and a Horner rounding
    term, plus one ulp of the endpoint, so it is strictly positive; it does not
    follow early errors through the flow's own growth.  Raises FieldError when
    the trajectory leaves the overflow guard or needs more steps than
    WORK_BUDGET allows the field; at least one step is always allowed.
    """
    x = [float(v) for v in point]
    if len(x) != field.dim:
        raise FieldError(f"point has {len(x)} coordinates, field has dimension {field.dim}")
    if not math.isfinite(t):
        raise FieldError(f"flow time {t!r} is not finite")
    n_order, d = TAYLOR_ORDER, field.dim
    gamma = n_order * sys.float_info.epsilon        # gamma_2N of Horner's rounding bound
    try:
        build, terms = _taylor_plan(field)
    except OverflowError:
        raise FieldError("coefficient too large for a float flow") from None
    # per step: N(N+1)/2 multiplications per Cauchy product, about N per term
    # and per coordinate, and N for the rest
    max_steps = max(1, WORK_BUDGET // (n_order * (n_order + 1) // 2 * len(build)
                                       + n_order * (1 + d + sum(map(len, terms)))))
    unit = [1.0] + [0.0] * n_order
    quantum = math.ulp(abs(t))
    done, err, steps = 0.0, 0.0, 0
    while done < abs(t):
        if steps == max_steps:
            raise FieldError(f"flow needs more than {max_steps} Taylor steps")
        steps += 1
        series = [unit] + [[v] for v in x] + [[] for _ in build]
        xs = series[1:1 + d]
        for n in range(n_order):
            for j, (a, b) in enumerate(build, 1 + d):
                series[j].append(sum(map(operator.mul, series[a], reversed(series[b]))))
            nxt = [sum(c * series[j][n] for j, c in comp) / (n + 1) for comp in terms]
            for s, v in zip(xs, nxt):
                s.append(v)
        # the two highest orders with a non-zero coefficient: orders may vanish
        # in runs (x' = 1 + x^4 from 0 has terms at orders 1, 5, 9, ..), and rho
        # is infinite only at an equilibrium, where the constant series is exact
        radii = {}
        for m in range(n_order, 0, -1):
            a = max((abs(s[m]) for s in xs), default=0.0)
            if a > 0:                       # a NaN is left to the overflow guard
                radii[m] = a ** (-1.0 / m)
                if len(radii) == 2:
                    break
        rho = min(radii.values(), default=math.inf)
        h = math.floor(min(abs(t) - done, rho / STEP_SAFETY) / quantum) * quantum
        if h == 0:
            raise FieldError("flow diverged: the Taylor step fell below the resolution of t")
        # the terms past the last order, taken to fall off geometrically by h / rho
        r = h / rho
        tail = max(((h / rm) ** m * r ** (n_order - m) for m, rm in radii.items()),
                   default=0.0) * r / (1 - r)
        step = math.copysign(h, t)
        size = 0.0
        for i, s in enumerate(xs):
            acc = mag = 0.0
            for c in reversed(s):
                acc = acc * step + c
                mag = mag * h + abs(c)
            x[i] = acc
            size = max(size, mag)
        if not all(abs(v) <= OVERFLOW_GUARD for v in x):        # also catches NaN
            raise FieldError("flow diverged beyond the overflow guard")
        err += tail + gamma * size
        done += h
    return np.array(x), err + math.ulp(max(map(abs, x), default=0.0))


def bracket_via_flows(x_field: PolyVectorField, y_field: PolyVectorField,
                      point, t: float) -> np.ndarray:
    """Finite commutator of flows, (flow loop - identity) / t^2 -> [X, Y](p) + O(t)."""
    if not 0 < t <= MAX_FLOW_T:
        raise FieldError(f"t must lie in (0, {MAX_FLOW_T}]")
    p = np.asarray(point, dtype=float)
    q, _ = flow(x_field, p, t)
    q, _ = flow(y_field, q, t)
    q, _ = flow(x_field, q, -t)
    q, _ = flow(y_field, q, -t)
    return (q - p) / t ** 2


# ---------------------------------------------------------------------------
# first-order prolongation (frame bundle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProlongedField:
    """Order-1 prolongation: base field on x plus generator JX(x) A on frames.

    ``matrix_part`` holds the d*d components (JX A)_ij, row-major, as
    polynomials in the d + d^2 variables x1..xd, a11, a12, .., add.
    """

    base: PolyVectorField
    matrix_part: tuple

    @property
    def dim(self) -> int:
        return self.base.dim

    def total(self) -> list:
        """All d + d^2 components as polynomials in the d + d^2 variables."""
        pad = (0,) * (self.dim ** 2)
        return [{e + pad: c for e, c in comp.items()}
                for comp in self.base.components] + list(self.matrix_part)


def prolong1(field: PolyVectorField) -> ProlongedField:
    """Lift to points-plus-frames: d/dt A = Jacobian(X)(x) . A."""
    d = field.dim

    def frame(k, j):            # exponent of a_kj in the frame variables
        return tuple(int(m == k * d + j) for m in range(d * d))

    mat = tuple(
        {e + frame(k, j): c for k in range(d)
         for e, c in _pdiff(field.components[i], k).items()}
        for i in range(d) for j in range(d)
    )
    return ProlongedField(base=field, matrix_part=mat)


def _prolonged_bracket(px: ProlongedField, py: ProlongedField) -> ProlongedField:
    """Lie bracket of prolonged fields on the d + d^2 dimensional total space."""
    d = px.dim
    out = _bracket(px.total(), py.total())
    # the base part depends on x only, so dropping the frame exponents is exact
    base = PolyVectorField([{e[:d]: c for e, c in comp.items()} for comp in out[:d]], dim=d)
    return ProlongedField(base=base, matrix_part=tuple(out[d:]))


def check_lemma_prolongation(x_field: PolyVectorField, y_field: PolyVectorField) -> dict:
    """Compare [X^(1), Y^(1)] with [X, Y]^(1) exactly; the difference must be 0.

    Returns {exact, max_coeff_diff} where max_coeff_diff is the largest
    absolute coefficient in the difference.
    """
    if x_field.dim != y_field.dim:
        raise FieldError("dimension mismatch")
    lhs = _prolonged_bracket(prolong1(x_field), prolong1(y_field)).total()
    rhs = prolong1(lie_bracket(x_field, y_field)).total()
    diffs = [_padd(a, b, -1) for a, b in zip(lhs, rhs)]
    worst = max((abs(float(c)) for p in diffs for c in p.values()), default=0.0)
    return {"exact": not any(diffs), "max_coeff_diff": worst}
