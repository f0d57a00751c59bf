"""Reference answers that do not call the code under test.

Everything here is written from the mathematics: monomial moments from
``math.lgamma``, Toeplitz, projection and norm entries in closed form, the
Bloch supremum of a monomial, Parseval sums, an exact dict-of-exponents Lie
bracket, group tables and integer double-coset product counts, and the known
rates of mollifier defects.  The workloads compare the program's outputs
with these values; the tolerances they use are in ``tolerances.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

TOLERANCES = json.loads((Path(__file__).resolve().parent / "tolerances.json").read_text())


def tol(key: str) -> float:
    return float(TOLERANCES[key]["tol"])


# ---------------------------------------------------------------------------
# disc: symbols sum c_ab z^a conj(z)^b
# ---------------------------------------------------------------------------

def moment(alpha: float, k: int) -> float:
    """Integral of |z|^(2k) against (alpha+1)(1-|z|^2)^alpha dA."""
    return math.exp(math.lgamma(k + 1) + math.lgamma(alpha + 2) - math.lgamma(k + alpha + 2))


def radial_exact(alpha: float, n_rad: int, s: int) -> bool:
    """True when an n_rad-point Gauss-Legendre rule in r integrates
    r^(2s) (alpha+1)(1-r^2)^alpha 2r exactly: alpha integral and degree
    2s + 1 + 2 alpha at most 2 n_rad - 1."""
    return float(alpha).is_integer() and 2 * s + 1 + 2 * int(alpha) <= 2 * n_rad - 1


def fourier_coeffs(terms) -> dict:
    """Exact boundary Fourier coefficients: phi_hat(a - b) = sum c_ab."""
    out: dict[int, Fraction] = {}
    for a, b, c in terms:
        out[a - b] = out.get(a - b, 0) + c
    return out


def toeplitz_entries(terms, alpha: float, n: int):
    """M[j][k] = sum c_ab delta(j, k+a-b) m_(k+a) / sqrt(m_j m_k), with the
    largest moment index used by each entry (to tell exact entries apart)."""
    m = [moment(alpha, k) for k in range(n + 4)]
    mat = [[0j] * (n + 1) for _ in range(n + 1)]
    top = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b, c in terms:
        for k in range(n + 1):
            j = k + a - b
            if 0 <= j <= n:
                mat[j][k] += complex(c) * m[k + a] / math.sqrt(m[j] * m[k])
                top[j][k] = max(top[j][k], k + a)
    return mat, top


def projection_coeffs(terms, alpha: float, n: int) -> list:
    """Bergman projection onto degree <= n: b_k = sum_{a-b=k} c_ab m_a / m_k."""
    out = [0j] * (n + 1)
    for a, b, c in terms:
        k = a - b
        if 0 <= k <= n:
            out[k] += complex(c) * moment(alpha, a) / moment(alpha, k)
    return out


def radial_profile(terms) -> dict:
    """Per-frequency radial polynomials: {k: {power of r: coeff}}."""
    out: dict[int, dict[int, complex]] = {}
    for a, b, c in terms:
        prof = out.setdefault(a - b, {})
        prof[a + b] = prof.get(a + b, 0) + complex(c)
    return out


def _mul_profiles(p, q) -> dict:
    out = {}
    for k in p.keys() & q.keys():
        prod: dict[int, complex] = {}
        for e1, c1 in p[k].items():
            for e2, c2 in q[k].items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
        out[k] = prod
    return out


def l2_norm_sq(profile, alpha: float) -> tuple[float, int]:
    """Integral over the disc of sum_k |f_hat_r(k)|^2 (Parseval in the angle),
    and the largest moment index it needs."""
    total = 0.0
    top = 0
    for prof in profile.values():
        for e1, c1 in prof.items():
            for e2, c2 in prof.items():
                s = (e1 + e2) // 2            # e1 + e2 is even for each frequency
                total += (c1 * c2.conjugate()).real * moment(alpha, s)
                top = max(top, s)
    return total, top


def bergman_l2(terms, alpha: float) -> tuple[float, int]:
    sq, top = l2_norm_sq(radial_profile(terms), alpha)
    return math.sqrt(sq), top


def convolution_p2(f_terms, g_terms, alpha: float) -> tuple[float, float, int]:
    """lhs = ||f * g|| and rhs = ||f|| ||g|| of the angular convolution check, p = 2."""
    pf, pg = radial_profile(f_terms), radial_profile(g_terms)
    lhs_sq, top = l2_norm_sq(_mul_profiles(pf, pg), alpha)
    nf, tf = l2_norm_sq(pf, alpha)
    ng, tg = l2_norm_sq(pg, alpha)
    return math.sqrt(lhs_sq), math.sqrt(nf * ng), max(top, tf, tg)


def bloch_monomial(c: complex, n: int, alpha: float) -> float:
    """sup_r (1-r^2)^alpha |n c r^(n-1)|, attained at r^2 = (n-1)/(n-1+2 alpha)."""
    if n == 1:
        return abs(c)
    r2 = (n - 1) / (n - 1 + 2 * alpha)
    return n * abs(c) * r2 ** ((n - 1) / 2) * (1 - r2) ** alpha


def hardy_h2(coeffs, radii) -> float:
    """sup over the radius ladder of sqrt(sum |a_k|^2 r^(2k))."""
    return max(math.sqrt(sum(abs(complex(c)) ** 2 * r ** (2 * k)
                             for k, c in enumerate(coeffs))) for r in radii)


# ---------------------------------------------------------------------------
# polynomial vector fields as {exponent tuple: int}
# ---------------------------------------------------------------------------

def _diff(poly: dict, v: int) -> dict:
    out = {}
    for e, c in poly.items():
        if e[v]:
            e2 = list(e)
            e2[v] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[v]
    return out


def _pmul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _padd(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def lie_bracket(x: list, y: list) -> list:
    """[X, Y]_i = sum_j X_j d_j Y_i - Y_j d_j X_i, exactly, in integers."""
    d = len(x)
    out = []
    for i in range(d):
        acc: dict = {}
        for j in range(d):
            acc = _padd(acc, _pmul(x[j], _diff(y[i], j)))
            acc = _padd(acc, _pmul(y[j], _diff(x[i], j)), -1)
        out.append(acc)
    return out


def field_add(*fields) -> list:
    out = [dict() for _ in fields[0]]
    for f in fields:
        out = [_padd(a, b) for a, b in zip(out, f)]
    return out


def field_at(field: list, point) -> list:
    return [sum(c * math.prod(p ** k for p, k in zip(point, e)) for e, c in comp.items())
            for comp in field]


def _flow(field: list, p: list, t: float, steps: int) -> list:
    """Classical RK4 for dp/dt = field(p), written independently of the program."""
    h = t / steps
    for _ in range(steps):
        k1 = field_at(field, p)
        k2 = field_at(field, [a + 0.5 * h * b for a, b in zip(p, k1)])
        k3 = field_at(field, [a + 0.5 * h * b for a, b in zip(p, k2)])
        k4 = field_at(field, [a + h * b for a, b in zip(p, k3)])
        p = [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(p, k1, k2, k3, k4)]
    return p


def flow_commutator(x: list, y: list, point, t: float, steps: int = 256) -> list:
    """(phi^Y_-t phi^X_-t phi^Y_t phi^X_t (p) - p) / t^2, the quantity whose
    limit as t -> 0 is [X, Y](p)."""
    q = _flow(x, list(point), t, steps)
    q = _flow(y, q, t, steps)
    q = _flow(x, q, -t, steps)
    q = _flow(y, q, -t, steps)
    return [(a - b) / t ** 2 for a, b in zip(q, point)]


# ---------------------------------------------------------------------------
# finite groups: tables built here, double cosets and exact Hecke counts
# ---------------------------------------------------------------------------

def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _table(elems, compose) -> list:
    index = {e: i for i, e in enumerate(elems)}
    return [[index[compose(a, b)] for b in elems] for a in elems]


def cyclic_table(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(n: int) -> list:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    elems = [tuple(range(n))]
    while len(elems) < n:
        elems.append(_compose(rot, elems[-1]))
    elems += [_compose(ref, e) for e in elems]
    return _table(elems, _compose)


def symmetric_table(n: int) -> list:
    return _table(sorted(itertools.permutations(range(n))), _compose)


def quaternion_table() -> list:
    units = "1ijk"
    sign = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1")}
    for u in units:
        sign[("1", u)] = sign[(u, "1")] = (1, u)
    elems = [(s, u) for u in units for s in (1, -1)]

    def compose(a, b):
        s, u = sign[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    return _table(elems, compose)


@functools.lru_cache(maxsize=None)
def group_table(kind: str, n: int) -> list:
    """Multiplication table, element 0 the identity; shared, do not modify."""
    return {"cyclic": cyclic_table, "dihedral": dihedral_table,
            "symmetric": symmetric_table}[kind](n) if kind != "quaternion" else quaternion_table()


def generated_subgroup(table: list, g: int) -> list:
    ident = next(e for e in range(len(table)) if table[e] == list(range(len(table))))
    members, x = [ident], g
    while x != ident:
        members.append(x)
        x = table[x][g]
    return sorted(members)


class HeckeCounts:
    """Double cosets K g K, ordered by their smallest element, and the exact
    counts N[i][j][k] = #{(x, y) in D_i x D_j : x y = rep_k}."""

    def __init__(self, table: list, members: list):
        order = len(table)
        block_of = [-1] * order
        blocks: list[list[int]] = []
        for g in range(order):
            if block_of[g] >= 0:
                continue
            block = sorted({table[table[k1][g]][k2] for k1 in members for k2 in members})
            for x in block:
                block_of[x] = len(blocks)
            blocks.append(block)
        d = len(blocks)
        hits = [[[0] * d for _ in range(d)] for _ in range(d)]
        for i, bi in enumerate(blocks):
            for x in bi:
                row = table[x]
                for j, bj in enumerate(blocks):
                    h = hits[i][j]
                    for y in bj:
                        h[block_of[row[y]]] += 1
        self.order = order
        self.blocks = blocks
        self.block_of = block_of
        self.counts = [[[hits[i][j][k] // len(blocks[k]) for k in range(d)]
                        for j in range(d)] for i in range(d)]
        ident = next(e for e in range(order) if table[e] == list(range(order)))
        self.inverse = [row.index(ident) for row in table]

    @property
    def gelfand(self) -> bool:
        d = len(self.blocks)
        return all(self.counts[i][j] == self.counts[j][i] for i in range(d) for j in range(d))

    def max_commutator(self) -> float:
        d, n = len(self.blocks), self.order
        worst = 0.0
        for i in range(d):
            for j in range(i + 1, d):
                diff = max(abs(a - b) for a, b in zip(self.counts[i][j], self.counts[j][i]))
                worst = max(worst, diff / (n * len(self.blocks[i]) * len(self.blocks[j])))
        return worst

    def spherical_residual(self, phi) -> float:
        """Largest violation of omega(e_i * e_j) = omega(e_i) omega(e_j), with
        omega(f) = (1/|G|) sum f(g) phi(g^-1), e_i = 1_{D_i}/|D_i|, and the
        product expanded through the exact counts."""
        n = self.order
        om = [sum(phi[self.inverse[g]] for g in b) / (len(b) * n) for b in self.blocks]
        worst = 0.0
        for i, bi in enumerate(self.blocks):
            for j, bj in enumerate(self.blocks):
                lhs = sum(self.counts[i][j][k] * len(bk) * om[k]
                          for k, bk in enumerate(self.blocks)) / (n * len(bi) * len(bj))
                worst = max(worst, abs(lhs - om[i] * om[j]))
        return worst * n * n


# ---------------------------------------------------------------------------
# mollifier defects
# ---------------------------------------------------------------------------

def poly_degree(name: str) -> int | None:
    if name == "const":
        return 0
    if name.startswith("poly:"):
        return int(name.split(":")[1])
    return None


def taylor_rate(name: str, q: int):
    """Known behaviour of sup_K |f - f * phi_eps| for a mollifier whose moments
    1..q+1 vanish: 'zero' when it is identically 0, else its eps-exponent."""
    deg = poly_degree(name)
    if deg is not None and deg <= q + 1:
        return "zero"
    if name == "abs":
        return 1.0
    if name.startswith("spike:"):
        return 0.0
    return float(q + 2)                     # exp, sin, poly:k with k > q+1


def seminorm_rate(name: str, alpha: int):
    """Known eps-exponent of sup_K |(f * phi_eps)^(alpha)|."""
    deg = poly_degree(name)
    if deg is not None and alpha > deg:
        return "zero"
    if name == "abs":
        return float(min(0, 1 - alpha))
    if name == "heaviside" or name.startswith("spike:"):
        return float(-alpha)
    return 0.0                              # exp, sin, poly:k with k >= alpha


def l1_norm(name: str) -> float:
    """Integral of |f| over the support [-2, 2] used by l1_embedding_bound."""
    deg = poly_degree(name)
    if deg is not None:
        return 2 * 2 ** (deg + 1) / (deg + 1)
    return {"abs": 4.0, "heaviside": 2.0, "exp": math.e ** 2 - math.e ** -2,
            "sin": 2 * (1 - math.cos(2.0))}.get(name, 1.0)  # spike:w has mass 1


def loglog_slope(eps, vals, floor: float) -> float | None:
    """Least-squares slope of log(value) on log(eps) over the four smallest
    epsilons whose value lies above the noise floor (the asymptotic regime)."""
    pts = [(math.log(e), math.log(v)) for e, v in zip(eps, vals) if v > floor][-4:]
    if len(pts) < 3:
        return None
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))
