"""Finite-group convolution algebras: bi-invariant projection, double-coset
bases, Gelfand-pair detection, spherical functions and weighted seminorms.

Haar measure is the normalized counting measure (total mass one), so the
convolution unit is |G| times the delta at the identity.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np


class GroupError(ValueError):
    """Raised for invalid multiplication tables or subgroups."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication-table group; element i * element j = mul[i, j].

    mul and inv are read-only; the constructor copies the table it is given.
    Two groups are equal when their tables are.
    """

    mul: np.ndarray
    inv: np.ndarray = field(repr=False)
    id: int = 0

    def __init__(self, mul):
        mul = np.array(mul, dtype=int)                       # private copy, frozen below
        n = mul.shape[0]
        if mul.shape != (n, n) or np.any(mul < 0) or np.any(mul >= n):
            raise GroupError("mul must be an n x n table of element indices")
        elements = np.arange(n)
        # e is a two-sided identity when row e and column e both read 0..n-1
        ident = np.flatnonzero((mul == elements).all(axis=1)
                               & (mul == elements[:, None]).all(axis=0))
        if ident.size == 0:
            raise GroupError("table has no two-sided identity")
        ident = int(ident[0])
        if not _is_associative(mul, ident):
            raise GroupError("table is not associative")
        # g needs exactly one h with g h = e, and then h g = e as well
        hits = mul == ident
        inv = hits.argmax(axis=1)
        bad = np.flatnonzero((hits.sum(axis=1) != 1) | (mul[inv, elements] != ident))
        if bad.size:
            raise GroupError(f"element {bad[0]} has no two-sided inverse")
        mul.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "id", ident)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return np.array_equal(self.mul, other.mul)

    def __hash__(self):
        return hash(self.mul.tobytes())

    @property
    def order(self) -> int:
        return self.mul.shape[0]


def _is_associative(mul: np.ndarray, ident: int) -> bool:
    """Light's associativity test on a generating set.

    Call a middle-associative if (x a) y = x (a y) for all x, y.  A product of
    two middle-associative elements is again middle-associative, so the table
    is associative as soon as its middle-associative elements generate it
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961, 1.2).
    Generators are chosen greedily, each the first element not yet generated,
    so the check costs O(|gens| n^2) instead of O(n^3), and it is complete for
    any table.
    """
    reached = np.zeros(len(mul), dtype=bool)
    reached[ident] = True                   # e is middle-associative and e e = e
    while not reached.all():
        a = int(np.argmin(reached))
        if not np.array_equal(mul[mul[:, a]], mul[:, mul[a]]):
            return False
        reached[a] = True
        while True:                         # close the reached set under products
            closed = np.flatnonzero(reached)
            reached[mul[np.ix_(closed, closed)]] = True
            if reached.sum() == closed.size:
                break
    return True


def subgroup(group: FiniteGroup, members) -> np.ndarray:
    """Validated subgroup: sorted member indices, closed under mul and inv."""
    members = np.unique(np.asarray(members, dtype=int))
    if members.size and (members[0] < 0 or members[-1] >= group.order):
        raise GroupError(f"subgroup indices must lie in 0..{group.order - 1}")
    inside = np.zeros(group.order, dtype=bool)
    inside[members] = True
    if not inside[group.id]:
        raise GroupError("subgroup must contain the identity")
    # row a: first a's inverse, then a * b for each member b, the order in which
    # a row-by-row scan meets them, so argmax finds the first failure
    bad = ~inside[np.hstack([group.inv[members, None], group.mul[members[:, None], members]])]
    if bad.any():
        row, col = np.unravel_index(np.argmax(bad), bad.shape)
        a = members[row]
        if col == 0:
            raise GroupError(f"subgroup not closed under inverse at element {a}")
        raise GroupError(f"subgroup not closed under product {a} * {members[col - 1]}")
    return members


# ---------------------------------------------------------------------------
# built-in group library
# ---------------------------------------------------------------------------

def _table_from_elements(elems, compose):
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    mul = np.empty((n, n), dtype=int)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = index[compose(a, b)]
    return FiniteGroup(mul)


@functools.lru_cache(maxsize=64)
def cyclic(n: int) -> FiniteGroup:
    g = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(g)


@functools.lru_cache(maxsize=64)
def symmetric(n: int) -> FiniteGroup:
    """S_n: element i is the i-th permutation of range(n) in lexicographic
    order, and i * j is the composition (a o b)(x) = a[b[x]]."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # permutations come in lexicographic order, the order of their base-n codes,
    # so a sorted search over the codes indexes every product
    place = n ** np.arange(n - 1, -1, -1)
    return FiniteGroup(np.searchsorted(perms @ place, perms[:, perms] @ place))


@functools.lru_cache(maxsize=64)
def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on the n-gon vertices: element k is the
    rotation r^k (x -> x + k) and element n + k the reflection s r^k
    (x -> -x - k), composed as maps.  From r^a s = s r^-a,
    (s^f r^a)(s^g r^b) = s^(f xor g) r^(b + (-1)^g a)."""
    k = np.arange(2 * n) % n
    flip = np.arange(2 * n) >= n
    # row s^f r^a times column s^g r^b
    turn = np.where(flip[None, :], -k[:, None], k[:, None]) + k[None, :]
    return FiniteGroup(n * (flip[:, None] ^ flip[None, :]) + turn % n)


@functools.lru_cache(maxsize=64)
def quaternion() -> FiniteGroup:
    """Quaternion group Q8 = {±1, ±i, ±j, ±k}."""
    units = ["1", "i", "j", "k"]
    prod = {("1", u): (1, u) for u in units}
    prod.update({(u, "1"): (1, u) for u in units})
    rules = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
             ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1")}
    prod.update(rules)
    elems = [(s, u) for u in units for s in (1, -1)]

    def compose(a, b):
        s, u = prod[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    return _table_from_elements(elems, compose)


GROUP_LIBRARY = {
    "z2": lambda: cyclic(2), "z3": lambda: cyclic(3), "z4": lambda: cyclic(4),
    "z5": lambda: cyclic(5), "z6": lambda: cyclic(6), "z8": lambda: cyclic(8),
    "d3": lambda: dihedral(3), "d4": lambda: dihedral(4), "d5": lambda: dihedral(5),
    "s3": lambda: symmetric(3), "s4": lambda: symmetric(4),
    "q8": quaternion,
}


def load_group_table(path) -> FiniteGroup:
    """Read a group from text: first line n, then n rows of n indices."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise GroupError(f"{path}: empty group table")
    n = int(tokens[0])
    vals = list(map(int, tokens[1:]))
    if len(vals) != n * n:
        raise GroupError(f"expected {n * n} table entries, got {len(vals)}")
    return FiniteGroup(np.array(vals, dtype=int).reshape(n, n))


# ---------------------------------------------------------------------------
# convolution algebra
# ---------------------------------------------------------------------------

def biinvariant_project(f, group: FiniteGroup, k_members) -> np.ndarray:
    """Double average over K on both sides: (1/|K|^2) sum f(k1 g k2)."""
    f = np.asarray(f, dtype=complex)
    k = subgroup(group, k_members)
    # k1 * g for all k1 in K, then ... * k2
    left = group.mul[np.ix_(k, np.arange(group.order))]      # |K| x n
    out = np.zeros(group.order, dtype=complex)
    for k2 in k:
        out += f[group.mul[left, k2]].sum(axis=0)
    return out / len(k) ** 2


def convolve(f1, f2, group: FiniteGroup) -> np.ndarray:
    """(f1 * f2)(g) = (1/|G|) sum_h f1(h) f2(h^-1 g)."""
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    n = group.order
    # rows h: f2 evaluated at h^-1 g
    translated = f2[group.mul[group.inv, :]]                 # [h, g] -> f2(h^-1 g)
    return (f1[:, None] * translated).sum(axis=0) / n


def delta_unit(group: FiniteGroup) -> np.ndarray:
    """Convolution unit |G| * delta at the identity."""
    out = np.zeros(group.order, dtype=complex)
    out[group.id] = group.order
    return out


def double_cosets(group: FiniteGroup, k_members) -> list[np.ndarray]:
    """Partition of G into double cosets K g K, each a sorted index array."""
    k = subgroup(group, k_members)
    seen = np.zeros(group.order, dtype=bool)
    blocks = []
    for g in range(group.order):
        if seen[g]:
            continue
        block = np.unique(group.mul[np.ix_(group.mul[k, g], k)].ravel())
        seen[block] = True
        blocks.append(block)
    return blocks


def coset_basis(group: FiniteGroup, k_members) -> np.ndarray:
    """Stacked indicator functions of the double cosets, normalized by size."""
    return _indicator_basis(double_cosets(group, k_members), group.order)


def _indicator_basis(blocks, order: int) -> np.ndarray:
    basis = np.zeros((len(blocks), order), dtype=complex)
    for i, block in enumerate(blocks):
        basis[i, block] = 1.0 / len(block)
    return basis


# int64 bins of structure constants counted at once (32 MB); d^3 fits for d <= 161
_MAX_BINS = 2 ** 22


def _coset_counts(group: FiniteGroup, blocks):
    """N[i, j, k] = #{(x, y) in D_i x D_j : x y = r_k}, r_k the first element of D_k,
    yielded as N[:, :, k0:k1] for consecutive blocks of target cosets k, each of
    at most _MAX_BINS entries (and at least one k).

    e_i * e_j takes the value N[i, j, k] / (|G| |D_i| |D_j|) on D_k, so these
    integers are the structure constants of the double-coset algebra.
    """
    d, n = len(blocks), group.order
    block_of = np.empty(n, dtype=np.intp)
    for i, block in enumerate(blocks):
        block_of[block] = i
    reps = np.array([block[0] for block in blocks])
    # each x in G pairs with exactly one y = x^-1 r_k
    y = group.mul[group.inv[:, None], reps[None, :]]         # n x d
    pair = block_of[:, None] * d + block_of[y]               # i d + j for (x, y)
    width = max(1, _MAX_BINS // d ** 2)
    for k0 in range(0, d, width):
        w = min(width, d - k0)
        idx = pair[:, k0:k0 + w] * w + np.arange(w)
        yield np.bincount(idx.ravel(), minlength=d * d * w).reshape(d, d, w)


def _commutator_report(group: FiniteGroup, blocks, counts) -> dict:
    """Sup norm of e_i * e_j - e_j * e_i over basis pairs i < j, from exact counts
    given as blocks of target cosets."""
    d = len(blocks)
    gap = np.zeros((d, d), dtype=np.int64)                  # max over k of |N_ijk - N_jik|
    for part in counts:
        np.maximum(gap, np.abs(part - part.transpose(1, 0, 2)).max(axis=2), out=gap)
    sizes = np.array([len(block) for block in blocks], dtype=float)
    comm = gap / (group.order * np.outer(sizes, sizes))
    comm = np.triu(comm, 1)
    i, j = np.unravel_index(np.argmax(comm), comm.shape)
    worst = float(comm[i, j])
    gelfand = worst == 0.0
    return {"gelfand": gelfand, "max_commutator": worst,
            "witness": None if gelfand else (int(i), int(j))}


def is_gelfand_pair(group: FiniteGroup, k_members) -> dict:
    """Exhaustive commutativity check of the double-coset convolution algebra,
    exact on the integer structure constants; the witness is the first pair
    (i, j) in row order with the largest commutator."""
    blocks = double_cosets(group, k_members)
    return _commutator_report(group, blocks, _coset_counts(group, blocks))


def spherical_transform(f, phi, group: FiniteGroup) -> complex:
    """Integration functional (1/|G|) sum f(g) phi(g^-1)."""
    f = np.asarray(f, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    return complex(np.sum(f * phi[group.inv]) / group.order)


def spherical_functions(group: FiniteGroup, k_members, seed: int = 0,
                        tol: float = 1e-10) -> list[np.ndarray]:
    """All spherical functions of a Gelfand pair (G, K).

    Computed as common eigenvectors of the commuting convolution operators on
    the double-coset basis (separated by a random generic combination), then
    cross-validated by exhaustive multiplicativity of the integration
    functional omega on all basis pairs: omega(e_i * e_j) = omega(e_i) omega(e_j),
    with e_i * e_j expanded through the structure constants.
    """
    blocks = double_cosets(group, k_members)
    d, n = len(blocks), group.order
    if d ** 3 > _MAX_BINS:
        raise GroupError(f"{d} double cosets: the {d}^3 structure constants exceed "
                         f"the {_MAX_BINS} counted at once")
    (counts,) = _coset_counts(group, blocks)                # one block, as d^3 fits
    report = _commutator_report(group, blocks, [counts])
    if not report["gelfand"]:
        raise GroupError(f"(G, K) is not a Gelfand pair; witness {report['witness']}")
    sizes = np.array([len(block) for block in blocks], dtype=float)
    basis = _indicator_basis(blocks, n)
    # e_i * e_j = sum_k c[i, k, j] e_k
    c = (counts * sizes / (n * np.outer(sizes, sizes)[:, :, None])).transpose(0, 2, 1)

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    generic = np.tensordot(coeffs, c, axes=(0, 0))          # d x d matrix
    _, vecs = np.linalg.eig(generic)

    out = []
    for v in vecs.T:
        phi = v @ basis                                     # function on G
        if abs(phi[group.id]) < 1e-12:
            raise GroupError("eigenvector vanishes at the identity")
        phi = phi / phi[group.id]
        omega = basis @ phi[group.inv] / n                  # omega(e_i)
        lhs = np.einsum("ikj,k->ij", c, omega)              # omega(e_i * e_j)
        if np.max(np.abs(lhs - np.outer(omega, omega))) >= tol:
            raise GroupError("eigenvector failed the multiplicativity check")
        out.append(phi)
    return out


def phi_seminorm(f, phi, group: FiniteGroup) -> float:
    """Weighted seminorm (1/|G|) sum |f(g)| phi(g) for submultiplicative phi > 0."""
    f = np.asarray(f, dtype=complex)
    phi = np.asarray(phi, dtype=float)
    if np.any(phi <= 0):
        raise ValueError("phi must be strictly positive")
    prods = phi[group.mul]
    bound = np.outer(phi, phi)
    bad = np.argwhere(prods > bound + 1e-12)
    if len(bad):
        g1, g2 = bad[0]
        raise ValueError(f"phi is not submultiplicative: witness pair ({g1}, {g2})")
    return float(np.sum(np.abs(f) * phi) / group.order)
