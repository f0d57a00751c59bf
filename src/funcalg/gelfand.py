"""Finite-group convolution algebras: bi-invariant projection, double-coset
bases, Gelfand-pair detection, spherical functions and weighted seminorms.

Haar measure is the normalized counting measure (total mass one), so the
convolution unit is |G| times the delta at the identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class GroupError(ValueError):
    """Raised for invalid multiplication tables or subgroups."""


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication-table group; element i * element j = mul[i, j]."""

    mul: np.ndarray
    inv: np.ndarray = field(repr=False)
    id: int = 0

    def __init__(self, mul):
        mul = np.asarray(mul, dtype=int)
        n = mul.shape[0]
        if mul.shape != (n, n) or np.any(mul < 0) or np.any(mul >= n):
            raise GroupError("mul must be an n x n table of element indices")
        # identity
        ident = None
        for e in range(n):
            if np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("table has no two-sided identity")
        # associativity, vectorized over all triples
        if not np.array_equal(mul[mul, :], mul[:, mul]):
            raise GroupError("table is not associative")
        # inverses
        inv = np.full(n, -1, dtype=int)
        for g in range(n):
            hits = np.where(mul[g] == ident)[0]
            if len(hits) != 1 or mul[hits[0], g] != ident:
                raise GroupError(f"element {g} has no two-sided inverse")
            inv[g] = hits[0]
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "id", int(ident))

    @property
    def order(self) -> int:
        return self.mul.shape[0]


def subgroup(group: FiniteGroup, members) -> np.ndarray:
    """Validated subgroup: sorted member indices, closed under mul and inv."""
    members = np.unique(np.asarray(members, dtype=int))
    mset = set(members.tolist())
    if group.id not in mset:
        raise GroupError("subgroup must contain the identity")
    for a in members:
        if int(group.inv[a]) not in mset:
            raise GroupError(f"subgroup not closed under inverse at element {a}")
        for b in members:
            if int(group.mul[a, b]) not in mset:
                raise GroupError(f"subgroup not closed under product {a} * {b}")
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


def cyclic(n: int) -> FiniteGroup:
    g = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(g)


def _perm_compose(a, b):
    # (a o b)(x) = a[b[x]]
    return tuple(a[b[i]] for i in range(len(a)))


def symmetric(n: int) -> FiniteGroup:
    elems = sorted(itertools.permutations(range(n)))
    return FiniteGroup(_table_from_elements(elems, _perm_compose).mul)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n as permutations of the n-gon vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    elems = []
    r = tuple(range(n))
    for _ in range(n):
        elems.append(r)
        r = _perm_compose(rot, r)
    for base in list(elems):
        elems.append(_perm_compose(ref, base))
    return FiniteGroup(_table_from_elements(elems, _perm_compose).mul)


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

    return FiniteGroup(_table_from_elements(elems, compose).mul)


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


def _coset_counts(group: FiniteGroup, blocks) -> np.ndarray:
    """N[i, j, k] = #{(x, y) in D_i x D_j : x y = r_k}, r_k the first element of D_k.

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
    idx = (block_of[:, None] * d + block_of[y]) * d + np.arange(d)
    return np.bincount(idx.ravel(), minlength=d ** 3).reshape(d, d, d)


def _commutator_report(group: FiniteGroup, blocks, counts: np.ndarray) -> dict:
    """Sup norm of e_i * e_j - e_j * e_i over basis pairs i < j, from exact counts."""
    sizes = np.array([len(block) for block in blocks], dtype=float)
    comm = (np.abs(counts - counts.transpose(1, 0, 2)).max(axis=2)
            / (group.order * np.outer(sizes, sizes)))
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
    counts = _coset_counts(group, blocks)
    report = _commutator_report(group, blocks, counts)
    if not report["gelfand"]:
        raise GroupError(f"(G, K) is not a Gelfand pair; witness {report['witness']}")
    d, n = len(blocks), group.order
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
