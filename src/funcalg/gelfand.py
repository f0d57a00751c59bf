"""Finite-group convolution algebras: bi-invariant projection, double-coset
bases, Gelfand-pair detection, spherical functions and weighted seminorms.

Haar measure is the normalized counting measure (total mass one), so the
convolution unit is |G| times the delta at the identity.

is_gelfand_pair and spherical_functions keep their results for the process,
per (G, K) and per (G, K, seed), in two functools.lru_cache memos of at most
512 entries each that drop the least recently used first; cache_clear()
empties both.  At worst an entry holds 16 d^2 + 8 |G| + 40 |K| bytes, d <= |G|
the number of double cosets, and keeps the group it names alive.  The first
spherical call on a pair whose report is not kept counts the structure
constants twice, once for the report that admits the pair and once for the
functions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np


class GroupError(ValueError):
    """Raised for invalid multiplication tables or subgroups."""


class NotGelfandPairError(GroupError):
    """Raised when a computation needs a Gelfand pair and (G, K) is not one."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication-table group; element i * element j = mul[i, j].

    mul and inv are read-only; the constructor copies the table it is given.
    Two groups are equal when their tables are; the table's hash is taken
    once, at construction.
    """

    mul: np.ndarray
    inv: np.ndarray = field(repr=False)
    id: int = 0

    def __init__(self, mul):
        bad_table = GroupError("mul must be an n x n table of element indices")
        try:
            mul = np.array(mul, dtype=int)                   # private copy, frozen below
        except OverflowError:                                # an entry past int64
            raise bad_table from None
        n = mul.shape[0]
        if mul.shape != (n, n) or np.any(mul < 0) or np.any(mul >= n):
            raise bad_table
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
        object.__setattr__(self, "_hash", hash(mul.tobytes()))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return np.array_equal(self.mul, other.mul)

    def __hash__(self):
        return self._hash

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
    out_of_range = GroupError(f"subgroup indices must lie in 0..{group.order - 1}")
    try:
        members = np.unique(np.asarray(members, dtype=int))
    except OverflowError:                   # an index past int64
        raise out_of_range from None
    if members.size and (members[0] < 0 or members[-1] >= group.order):
        raise out_of_range
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
    """Quaternion group Q8 = {±1, ±i, ±j, ±k}: element 2u + b is (-1)^b times
    unit u of (1, i, j, k).  The unit of a product is u xor v, and its sign
    flips for ii, jj, kk, ji, kj and ik."""
    u, b = np.divmod(np.arange(8), 2)
    flips = np.zeros((4, 4), dtype=int)
    flips[[1, 2, 3, 2, 3, 1], [1, 2, 3, 1, 2, 3]] = 1
    sign = b[:, None] ^ b[None, :] ^ flips[u[:, None], u[None, :]]
    return FiniteGroup(2 * (u[:, None] ^ u[None, :]) + sign)


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
    try:
        n, *vals = map(int, tokens)
    except ValueError:
        raise GroupError(f"{path}: group table holds a token that is not an integer") from None
    if n < 1:
        raise GroupError(f"{path}: group order must be at least 1, got {n}")
    if len(vals) != n * n:
        raise GroupError(f"{path}: expected {n * n} table entries, got {len(vals)}")
    if min(vals) < 0 or max(vals) >= n:
        raise GroupError(f"{path}: table entries must lie in 0..{n - 1}")
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
    # label each g by the smallest element of K g K: low[x] = min of x K, and
    # K g K is the union of the x K over x in K g
    low = group.mul[:, k].min(axis=1)
    labels = low[group.mul[k]].min(axis=0)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def coset_basis(group: FiniteGroup, k_members) -> np.ndarray:
    """Stacked indicator functions of the double cosets, normalized by size."""
    blocks = double_cosets(group, k_members)
    basis = np.zeros((len(blocks), group.order), dtype=complex)
    for i, block in enumerate(blocks):
        basis[i, block] = 1.0 / len(block)
    return basis


def _labels(blocks, order: int) -> np.ndarray:
    """Index of the double coset that holds each element of G."""
    block_of = np.empty(order, dtype=np.intp)
    for i, block in enumerate(blocks):
        block_of[block] = i
    return block_of


def _coset_counts(group: FiniteGroup, blocks):
    """(codes, counts): the nonzero N[i, j, k] = #{(x, y) in D_i x D_j : x y = r_k},
    r_k the first element of D_k, under the sorted codes (i d + j) d + k.

    e_i * e_j takes the value N[i, j, k] / (|G| |D_i| |D_j|) on D_k, so these
    integers are the structure constants of the double-coset algebra.  At most
    |G| d are nonzero, as each x in G pairs with exactly one y = x^-1 r_k.
    """
    d = len(blocks)
    block_of = _labels(blocks, group.order)
    reps = np.array([block[0] for block in blocks])
    y = group.mul[group.inv[:, None], reps[None, :]]         # n x d
    codes = ((block_of[:, None] * d + block_of[y]) * d + np.arange(d)).ravel()
    codes.sort()
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[starts], np.diff(starts, append=codes.size)


# The algebra benchmark's 30,400 Gelfand calls (seeds 1-2) touch 284 distinct
# (G, K), well under the 512 entries each memo keeps, and keep ~2 MB in all.
# K is the sorted member tuple subgroup() returns.  A report with its key takes
# under 1 KB + 40 |K| bytes, and each distinct group a key keeps alive holds
# 8 |G|^2 bytes of table.

@functools.lru_cache(maxsize=512)
def _pair_report(group: FiniteGroup, k: tuple) -> dict:
    """Commutator report of (G, K): the sup norm of e_i * e_j - e_j * e_i over
    basis pairs i < j, from the sparse table of exact counts."""
    blocks = double_cosets(group, k)
    codes, counts = _coset_counts(group, blocks)
    d = len(blocks)
    ij, kk = np.divmod(codes, d)
    i, j = np.divmod(ij, d)
    swapped = (j * d + i) * d + kk                          # the code of N_jik
    at = np.minimum(np.searchsorted(codes, swapped), codes.size - 1)
    gap = np.abs(counts - np.where(codes[at] == swapped, counts[at], 0))
    sizes = np.array([len(block) for block in blocks], dtype=float)
    comm = gap / (group.order * (sizes[i] * sizes[j]))
    worst = float(comm.max())
    # fold (j, i) onto i < j; the witness is the first worst pair in row order
    first = int((np.minimum(i, j) * d + np.maximum(i, j))[comm == worst].min())
    gelfand = worst == 0.0
    return {"gelfand": gelfand, "max_commutator": worst,
            "witness": None if gelfand else divmod(first, d)}


def cache_clear() -> None:
    """Forget every kept commutator report and set of spherical functions."""
    _pair_report.cache_clear()
    _spherical_on_cosets.cache_clear()


def is_gelfand_pair(group: FiniteGroup, k_members) -> dict:
    """Exhaustive commutativity check of the double-coset convolution algebra,
    exact on the integer structure constants; the witness is the first pair
    (i, j) in row order with the largest commutator.

    K is validated on every call; the report is kept per (G, K) for the
    process (see cache_clear) and returned as a fresh dict.
    """
    return dict(_pair_report(group, tuple(subgroup(group, k_members).tolist())))


def spherical_transform(f, phi, group: FiniteGroup) -> complex:
    """Integration functional (1/|G|) sum f(g) phi(g^-1)."""
    f = np.asarray(f, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    return complex(np.sum(f * phi[group.inv]) / group.order)


def spherical_functions(group: FiniteGroup, k_members, seed: int = 0) -> list[np.ndarray]:
    """All spherical functions of a Gelfand pair (G, K).

    Computed as common eigenvectors of the commuting convolution operators on
    the double-coset basis (separated by a random generic combination), then
    cross-validated by exhaustive multiplicativity of the integration
    functional omega on all basis pairs: omega(e_i * e_j) = omega(e_i) omega(e_j)
    within 1e-10, with e_i * e_j expanded through the structure constants.

    K is validated on every call.  The functions are kept per (G, K, seed)
    for the process as their values on the double cosets (see cache_clear),
    and every call returns fresh arrays.  Raises NotGelfandPairError when
    (G, K) is not a Gelfand pair.
    """
    k = tuple(subgroup(group, k_members).tolist())
    values, labels = _spherical_on_cosets(group, k, seed)
    return list(values[:, labels])


@functools.lru_cache(maxsize=512)
def _spherical_on_cosets(group: FiniteGroup, k: tuple, seed: int):
    """(values, labels): values[j, i] is the j-th spherical function on the
    double coset D_i, and labels[g] the index of the coset holding g."""
    report = _pair_report(group, k)
    if not report["gelfand"]:
        raise NotGelfandPairError(f"(G, K) is not a Gelfand pair; witness {report['witness']}")
    blocks = double_cosets(group, k)
    d, n = len(blocks), group.order
    codes, counts = _coset_counts(group, blocks)
    pair, kk = np.divmod(codes, d)                          # pair = i d + j
    i, j = np.divmod(pair, d)
    sizes = np.array([len(block) for block in blocks], dtype=float)
    # e_i * e_j = sum over the nonzeros of weight e_k
    weight = counts * sizes[kk] / (n * (sizes[i] * sizes[j]))

    def scatter(index, values):                             # d x d sums by flat index
        return (np.bincount(index, values.real, d * d)
                + 1j * np.bincount(index, values.imag, d * d)).reshape(d, d)

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    generic = scatter(kk * d + j, coeffs[i] * weight)       # sum_i coeffs_i e_i * e_j
    _, vecs = np.linalg.eig(generic)

    labels = _labels(blocks, n)
    unit = labels[group.id]                                 # the coset K
    inverse = labels[group.inv[[block[0] for block in blocks]]]   # D_i^-1 = D_inverse[i]
    values = np.empty((d, d), dtype=complex)
    for v, phi in zip(vecs.T, values):
        phi[:] = v * (1.0 / sizes)                          # the function on the cosets
        if abs(phi[unit]) < 1e-12:
            raise GroupError("eigenvector vanishes at the identity")
        phi /= phi[unit]
        omega = phi[inverse] / n                            # omega(e_i)
        lhs = scatter(pair, weight * omega[kk])             # omega(e_i * e_j)
        if np.max(np.abs(lhs - np.outer(omega, omega))) >= 1e-10:
            raise GroupError("eigenvector failed the multiplicativity check")
    values.setflags(write=False)
    labels.setflags(write=False)
    return values, labels


def phi_seminorm(f, phi, group: FiniteGroup) -> float:
    """Weighted seminorm (1/|G|) sum |f(g)| phi(g) for submultiplicative phi > 0."""
    f = np.asarray(f, dtype=complex)
    phi = np.asarray(phi, dtype=float)
    if np.any(phi <= 0):
        raise ValueError("phi must be strictly positive")
    bad = np.argwhere(phi[group.mul] > np.outer(phi, phi) * (1 + 1e-12))   # relative slack
    if len(bad):
        g1, g2 = bad[0]
        raise ValueError(f"phi is not submultiplicative: witness pair ({g1}, {g2})")
    return float(np.sum(np.abs(f) * phi) / group.order)
