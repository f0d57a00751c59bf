import itertools
import json
import tracemalloc

import numpy as np
import pytest

from funcalg import gelfand
from funcalg.cli import main
from funcalg.io import parse_complex


@pytest.fixture(scope="module")
def s3():
    return gelfand.symmetric(3)


def first_transposition(group):
    return next(g for g in range(1, group.order) if group.mul[g, g] == group.id)


class TestFiniteGroup:
    def test_cyclic_orders(self):
        for n in (2, 3, 5, 8):
            assert gelfand.cyclic(n).order == n

    def test_symmetric_order(self, s3):
        assert s3.order == 6
        assert gelfand.symmetric(4).order == 24

    def test_dihedral_and_quaternion_orders(self):
        assert gelfand.dihedral(4).order == 8
        # D1 = Z2 and D2 = Z2 x Z2, where the n-gon picture degenerates
        assert gelfand.dihedral(1).order == 2
        v4 = gelfand.dihedral(2).mul
        assert np.array_equal(v4, v4.T) and np.all(np.diag(v4) == 0)
        assert gelfand.quaternion().order == 8

    def test_quaternion_not_abelian(self):
        q8 = gelfand.quaternion()
        assert any(q8.mul[a, b] != q8.mul[b, a]
                   for a in range(8) for b in range(8))

    def test_inverse_table(self, s3):
        for g in range(s3.order):
            assert s3.mul[g, s3.inv[g]] == s3.id
            assert s3.mul[s3.inv[g], g] == s3.id

    def test_rejects_non_associative(self):
        # a loop that is not a group: a Latin square with a two-sided identity
        # in which every element is its own two-sided inverse
        table = np.array([[0, 1, 2, 3, 4],
                          [1, 0, 3, 4, 2],
                          [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1],
                          [4, 3, 1, 2, 0]])
        # times Z2, indexed 2 l + z: element 1 = (e, 1) passes the generator
        # check, so the failure shows only at a later generator
        z2 = np.array([[0, 1], [1, 0]])
        product = (2 * table[:, None, :, None] + z2[None, :, None, :]).reshape(10, 10)
        for t in (table, product):
            n = len(t)
            assert all(sorted(row) == list(range(n)) for row in np.r_[t, t.T])
            assert np.all(np.diag(t) == 0)
            assert not np.array_equal(t[t, :], t[:, t])
            with pytest.raises(gelfand.GroupError, match="not associative"):
                gelfand.FiniteGroup(t)

    def test_rejects_what_the_full_check_rejects(self):
        # single-entry edits of S4 against the n^3 check mul[mul, :] == mul[:, mul]
        s4 = gelfand.symmetric(4).mul
        rng = np.random.default_rng(7)
        by_generators = 0
        for _ in range(200):
            table = s4.copy()
            i, j = rng.integers(24, size=2)
            table[i, j] = (table[i, j] + rng.integers(1, 24)) % 24
            assert not np.array_equal(table[table, :], table[:, table])
            if 0 in (i, j):          # the identity's row or column: no identity left
                with pytest.raises(gelfand.GroupError):
                    gelfand.FiniteGroup(table)
            else:
                by_generators += 1
                with pytest.raises(gelfand.GroupError, match="not associative"):
                    gelfand.FiniteGroup(table)
        assert by_generators > 150

    def test_tables_are_read_only_copies(self):
        table = gelfand.cyclic(5).mul.copy()
        group = gelfand.FiniteGroup(table)
        table[0, 0] = 1                          # the caller's array stays writable
        assert group.mul[0, 0] == 0
        with pytest.raises(ValueError):
            group.mul[0, 0] = 1
        with pytest.raises(ValueError):
            group.inv[0] = 1

    def test_value_semantics(self):
        z3 = gelfand.cyclic(3)
        copy = gelfand.FiniteGroup(z3.mul)
        assert copy is not z3 and copy == z3 and hash(copy) == hash(z3)
        assert z3 != gelfand.cyclic(4)
        assert z3 != "z3"
        # S3 and D3 are isomorphic, but their tables differ
        assert gelfand.symmetric(3) != gelfand.dihedral(3)
        assert len({z3, copy, gelfand.cyclic(4), gelfand.symmetric(3)}) == 3

    def test_rejects_no_identity(self):
        with pytest.raises(gelfand.GroupError):
            gelfand.FiniteGroup(np.array([[0, 0], [0, 0]]))

    @pytest.mark.parametrize("entry", [2 ** 70, -2 ** 70])
    def test_rejects_entries_past_int64(self, entry):
        with pytest.raises(gelfand.GroupError, match="n x n table"):
            gelfand.FiniteGroup([[0, 1], [1, entry]])

    def test_subgroup_validation(self, s3):
        t = first_transposition(s3)
        members = gelfand.subgroup(s3, [s3.id, t])
        assert set(members) == {s3.id, t}
        with pytest.raises(gelfand.GroupError):
            gelfand.subgroup(s3, [t])  # missing identity

    def test_subgroup_names_first_failure(self, s3):
        # reference: the row-by-row scan, a's inverse before the products a * b
        def first_failure(members):
            for a in members:
                if s3.inv[a] not in members:
                    return f"subgroup not closed under inverse at element {a}"
                for b in members:
                    if s3.mul[a, b] not in members:
                        return f"subgroup not closed under product {a} * {b}"
            return None

        for size in range(5):
            for rest in itertools.combinations(range(1, 6), size):
                members = [s3.id, *rest]
                want = first_failure(members)
                if want is None:
                    assert list(gelfand.subgroup(s3, members)) == members
                else:
                    with pytest.raises(gelfand.GroupError) as err:
                        gelfand.subgroup(s3, members)
                    assert str(err.value) == want

    def test_load_group_table(self, tmp_path):
        z3 = gelfand.cyclic(3)
        path = tmp_path / "z3.txt"
        rows = "\n".join(" ".join(map(str, row)) for row in z3.mul)
        path.write_text(f"3\n{rows}\n")
        loaded = gelfand.load_group_table(path)
        assert np.array_equal(loaded.mul, z3.mul)

    @pytest.mark.parametrize("members", [[0, 99], [0, -1], [0, 6]])
    def test_subgroup_rejects_out_of_range_indices(self, s3, members):
        # numpy would wrap -1 to element 5 and fail on 99 with an IndexError
        with pytest.raises(gelfand.GroupError, match="0..5"):
            gelfand.subgroup(s3, members)

    @pytest.mark.parametrize("members", [[0, 10 ** 20], [-10 ** 20, 0], [0, 2 ** 63]])
    def test_subgroup_rejects_indices_past_int64(self, s3, members):
        with pytest.raises(gelfand.GroupError, match="0..5"):
            gelfand.subgroup(s3, members)

    def test_load_group_table_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("  \n")
        with pytest.raises(gelfand.GroupError, match="empty"):
            gelfand.load_group_table(path)


def _table(elems, compose):
    index = {e: i for i, e in enumerate(elems)}
    return np.array([[index[compose(a, b)] for b in elems] for a in elems])


def _perm_product(a, b):
    return tuple(np.asarray(a)[list(b)])


def _fixing(n, keep):
    """Indices in symmetric(n) of the permutations p with keep(p)."""
    return [i for i, p in enumerate(sorted(itertools.permutations(range(n)))) if keep(p)]


def _hamilton(a, b):
    """Product of unit quaternions given as 4-tuples (1, i, j, k)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _cyclic_subgroups(group):
    """The distinct cyclic subgroups <g> of a group, as sorted member lists."""
    found = set()
    for g in range(group.order):
        members, x = {group.id}, g
        while x != group.id:
            members.add(x)
            x = group.mul[x, g]
        found.add(tuple(sorted(members)))
    return [list(k) for k in sorted(found)]


def _double_cosets_by_loop(group, k):
    """Reference partition: walk G in order and take K g K for each g not yet covered."""
    k = np.asarray(k)
    seen = np.zeros(group.order, dtype=bool)
    blocks = []
    for g in range(group.order):
        if not seen[g]:
            block = np.unique(group.mul[np.ix_(group.mul[k, g], k)].ravel())
            seen[block] = True
            blocks.append(block)
    return blocks


LIBRARY_CONSTRUCTORS = (gelfand.cyclic, gelfand.dihedral, gelfand.symmetric, gelfand.quaternion)


class TestGroupLibrary:
    """Library tables against tables built here from the element lists."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_table(self, n):
        elems = sorted(itertools.permutations(range(n)))
        assert np.array_equal(gelfand.symmetric(n).mul, _table(elems, _perm_product))

    def test_symmetric_6_is_small(self):
        gelfand.symmetric.cache_clear()
        tracemalloc.start()
        try:
            s6 = gelfand.symmetric(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s6.order == 720
        assert peak < 100e6

    def test_dihedral_table(self):
        for n in range(3, 18):
            rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
            reflection = tuple((-i) % n for i in range(n))
            elems = rotations + [_perm_product(reflection, r) for r in rotations]
            assert np.array_equal(gelfand.dihedral(n).mul, _table(elems, _perm_product))

    def test_quaternion_table(self):
        units = np.eye(4, dtype=int)
        elems = [tuple(int(v) for v in s * u) for u in units for s in (1, -1)]
        assert np.array_equal(gelfand.quaternion().mul, _table(elems, _hamilton))

    @pytest.mark.parametrize("build", [lambda: gelfand.symmetric(4),
                                       lambda: gelfand.dihedral(5), gelfand.quaternion])
    def test_validated_once(self, build, monkeypatch):
        calls = []
        init = gelfand.FiniteGroup.__init__

        def counting_init(self, mul):
            calls.append(1)
            init(self, mul)

        monkeypatch.setattr(gelfand.FiniteGroup, "__init__", counting_init)
        for constructor in LIBRARY_CONSTRUCTORS:
            constructor.cache_clear()
        group = build()
        assert len(calls) == 1
        assert build() is group                  # built once per process
        assert len(calls) == 1


class TestConvolution:
    def test_unit(self, s3):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        unit = gelfand.delta_unit(s3)
        np.testing.assert_allclose(gelfand.convolve(unit, f, s3), f, atol=1e-14)
        np.testing.assert_allclose(gelfand.convolve(f, unit, s3), f, atol=1e-14)

    def test_exhaustive_triple_sum_oracle(self, s3):
        # oracle: direct double loop over the group
        rng = np.random.default_rng(1)
        f1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        direct = np.zeros(6, dtype=complex)
        for g in range(6):
            for h in range(6):
                direct[g] += f1[h] * f2[s3.mul[s3.inv[h], g]]
        direct /= 6
        np.testing.assert_allclose(gelfand.convolve(f1, f2, s3), direct, atol=1e-14)

    def test_abelian_commutes(self):
        z6 = gelfand.cyclic(6)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(6)
        g = rng.standard_normal(6)
        np.testing.assert_allclose(gelfand.convolve(f, g, z6),
                                   gelfand.convolve(g, f, z6), atol=1e-14)


class TestBiinvariance:
    def test_projection_idempotent(self, s3):
        k = [s3.id, first_transposition(s3)]
        rng = np.random.default_rng(3)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p1 = gelfand.biinvariant_project(f, s3, k)
        p2 = gelfand.biinvariant_project(p1, s3, k)
        np.testing.assert_allclose(p1, p2, atol=1e-13)

    def test_projection_output_biinvariant(self, s3):
        k = [s3.id, first_transposition(s3)]
        rng = np.random.default_rng(4)
        f = gelfand.biinvariant_project(
            rng.standard_normal(6) + 1j * rng.standard_normal(6), s3, k)
        for k1 in k:
            for k2 in k:
                shifted = f[s3.mul[s3.mul[k1, np.arange(6)], k2]]
                np.testing.assert_allclose(shifted, f, atol=1e-13)

    def test_double_cosets_partition(self, s3):
        k = [s3.id, first_transposition(s3)]
        blocks = gelfand.double_cosets(s3, k)
        flat = sorted(int(i) for b in blocks for i in b)
        assert flat == list(range(6))
        # K itself (size 2) and KtK for any other transposition t (size 4)
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [2, 4]

    def test_double_cosets_match_element_loop(self):
        pairs = []
        for build in gelfand.GROUP_LIBRARY.values():
            group = build()
            pairs += [(group, k) for k in _cyclic_subgroups(group)]
        s5, s6 = gelfand.symmetric(5), gelfand.symmetric(6)
        pairs += [(s5, [s5.id]), (s6, [s6.id]), (s6, _fixing(6, lambda p: p[5] == 5))]
        for group, k in pairs:
            blocks = gelfand.double_cosets(group, k)
            expected = _double_cosets_by_loop(group, k)
            assert len(blocks) == len(expected)
            for block, want in zip(blocks, expected):
                assert np.array_equal(block, want)


class TestGelfandPair:
    def test_s3_with_transposition(self, s3):
        rep = gelfand.is_gelfand_pair(s3, [s3.id, first_transposition(s3)])
        assert rep["gelfand"]
        assert rep["max_commutator"] < 1e-12

    def test_q8_trivial_rejected_with_witness(self):
        q8 = gelfand.quaternion()
        rep = gelfand.is_gelfand_pair(q8, [q8.id])
        assert not rep["gelfand"]
        i, j = rep["witness"]
        # the witness pair of basis elements genuinely fails to commute
        basis = gelfand.coset_basis(q8, [q8.id])
        comm = (gelfand.convolve(basis[i], basis[j], q8)
                - gelfand.convolve(basis[j], basis[i], q8))
        assert np.max(np.abs(comm)) > 1e-6

    def test_abelian_always_gelfand(self):
        z8 = gelfand.cyclic(8)
        assert gelfand.is_gelfand_pair(z8, [0])["gelfand"]

    def test_s4_with_s3_gelfand(self):
        s4 = gelfand.symmetric(4)
        elems = sorted(itertools.permutations(range(4)))
        k = [i for i, e in enumerate(elems) if e[3] == 3]  # copy of S3 fixing 3
        assert len(k) == 6
        rep = gelfand.is_gelfand_pair(s4, k)
        assert rep["gelfand"]


    @staticmethod
    def _convolution_report(group, k):
        """is_gelfand_pair by explicit convolution of every basis pair."""
        basis = gelfand.coset_basis(group, k)
        worst, witness = 0.0, None
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                comm = (gelfand.convolve(basis[i], basis[j], group)
                        - gelfand.convolve(basis[j], basis[i], group))
                norm = float(np.max(np.abs(comm)))
                if norm > worst + 1e-15:
                    worst, witness = norm, (i, j)
        return worst, witness

    @pytest.mark.parametrize("name, pick", [
        ("q8", lambda g: [g.id]),
        ("s4", lambda g: [g.id]),
        ("s4", lambda g: [g.id, first_transposition(g)]),
        ("d5", lambda g: [g.id]),
        ("d5", lambda g: [g.id, first_transposition(g)]),
        ("z6", lambda g: [0, 3]),
    ])
    def test_commutator_matches_convolution(self, name, pick):
        group = gelfand.GROUP_LIBRARY[name]()
        k = pick(group)
        rep = gelfand.is_gelfand_pair(group, k)
        worst, witness = self._convolution_report(group, k)
        assert rep["max_commutator"] == pytest.approx(worst, rel=1e-12, abs=1e-15)
        assert rep["gelfand"] == (worst < 1e-12)
        assert rep["witness"] == (None if rep["gelfand"] else witness)

    def test_structure_constants_match_convolution(self):
        s4 = gelfand.symmetric(4)
        k = [s4.id, first_transposition(s4)]
        blocks = gelfand.double_cosets(s4, k)
        basis = gelfand.coset_basis(s4, k)
        d = len(blocks)
        codes, nonzero = gelfand._coset_counts(s4, blocks)
        counts = np.zeros(d ** 3, dtype=np.int64)
        counts[codes] = nonzero
        counts = counts.reshape(d, d, d)
        for i in range(len(blocks)):
            for j in range(len(blocks)):
                conv = gelfand.convolve(basis[i], basis[j], s4)
                for kk, block in enumerate(blocks):
                    want = counts[i, j, kk] / (s4.order * len(blocks[i]) * len(blocks[j]))
                    np.testing.assert_allclose(conv[block], want, atol=1e-15)

    def test_s5_trivial_subgroup_rejected(self):
        s5 = gelfand.symmetric(5)
        rep = gelfand.is_gelfand_pair(s5, [s5.id])
        assert not rep["gelfand"]
        i, j = rep["witness"]
        basis = gelfand.coset_basis(s5, [s5.id])
        comm = (gelfand.convolve(basis[i], basis[j], s5)
                - gelfand.convolve(basis[j], basis[i], s5))
        assert np.max(np.abs(comm)) == pytest.approx(rep["max_commutator"], rel=1e-12)


def _dense_counts(group, blocks):
    """Reference N[i, j, k] from the whole table: each product x y that lands on
    r_k, the first element of D_k, adds one to N[coset of x, coset of y, k]."""
    d = len(blocks)
    label = np.empty(group.order, dtype=int)
    target = np.full(group.order, -1)
    for i, block in enumerate(blocks):
        label[block] = i
        target[block[0]] = i
    x, y = np.nonzero(target[group.mul] >= 0)
    counts = np.zeros((d, d, d), dtype=np.int64)
    np.add.at(counts, (label[x], label[y], target[group.mul[x, y]]), 1)
    return counts


def _dense_report(group, blocks, counts):
    """Reference commutator report read off the dense d x d x d counts."""
    gap = np.abs(counts - counts.transpose(1, 0, 2)).max(axis=2)
    sizes = np.array([len(block) for block in blocks], dtype=float)
    comm = np.triu(gap / (group.order * np.outer(sizes, sizes)), 1)
    i, j = np.unravel_index(np.argmax(comm), comm.shape)
    worst = float(comm[i, j])
    return {"gelfand": worst == 0.0, "max_commutator": worst,
            "witness": None if worst == 0.0 else (int(i), int(j))}


class TestCosetCountBlocks:
    """Structure constants over the double cosets, kept as one sparse table."""

    CASES = [("q8", lambda g: [g.id]), ("s4", lambda g: [g.id]),
             ("s4", lambda g: [g.id, first_transposition(g)]),
             ("d5", lambda g: [g.id]), ("z6", lambda g: [0, 3]), ("s3", lambda g: [g.id])]

    @pytest.mark.parametrize("cap", [1, 50, 1000])
    def test_blocks_tile_the_full_tensor(self, cap):
        # the code (i d + j) d + k keeps the target coset k in its lowest digit,
        # so runs of target cosets, at most `cap` bins each, cut out of the
        # sparse table tile the d x d x d tensor of counts
        for name, pick in self.CASES:
            group = gelfand.GROUP_LIBRARY[name]()
            blocks = gelfand.double_cosets(group, pick(group))
            d = len(blocks)
            codes, counts = gelfand._coset_counts(group, blocks)
            full = np.zeros(d ** 3, dtype=np.int64)
            full[codes] = counts
            full = full.reshape(d, d, d)
            width = max(1, cap // d ** 2)
            parts = []
            for lo in range(0, d, width):
                hi = min(lo + width, d)
                ij, k = np.divmod(codes, d)
                keep = (k >= lo) & (k < hi)
                part = np.zeros((d * d, hi - lo), dtype=np.int64)
                part[ij[keep], k[keep] - lo] = counts[keep]
                parts.append(part.reshape(d, d, hi - lo))
            assert all(part.size <= max(cap, d * d) for part in parts)
            assert len(parts) == -(-d // width)
            assert np.array_equal(np.concatenate(parts, axis=2), full)
            assert np.array_equal(full, _dense_counts(group, blocks)), name
            gelfand.cache_clear()                # count, rather than read a kept report
            assert gelfand.is_gelfand_pair(group, pick(group)) == _dense_report(group, blocks, full)

    def test_sparse_table_matches_dense_reference(self):
        s5, s6 = gelfand.symmetric(5), gelfand.symmetric(6)
        cases = [(build(), k) for build in gelfand.GROUP_LIBRARY.values()
                 for k in _cyclic_subgroups(build())]
        cases += [(s5, [s5.id]), (s6, _fixing(6, lambda p: p[5] == 5))]
        for group, k in cases:
            blocks = gelfand.double_cosets(group, k)
            codes, counts = gelfand._coset_counts(group, blocks)
            dense = _dense_counts(group, blocks)
            assert np.array_equal(codes, np.flatnonzero(dense)), (group.order, k)
            assert np.array_equal(counts, dense.ravel()[codes]), (group.order, k)
            gelfand.cache_clear()                # count, rather than read a kept report
            assert gelfand.is_gelfand_pair(group, k) == _dense_report(group, blocks, dense)

    def test_s6_trivial_subgroup_closed_form(self):
        # with K trivial, D_a = {a} and r_k = k, so N[a, b, k] = 1 when a b = k
        # and 0 otherwise: one nonzero per pair (a, b)
        s6 = gelfand.symmetric(6)
        codes, counts = gelfand._coset_counts(s6, gelfand.double_cosets(s6, [s6.id]))
        a, b = np.divmod(np.arange(720 ** 2), 720)
        assert np.array_equal(codes, np.sort((a * 720 + b) * 720 + s6.mul[a, b]))
        assert np.all(counts == 1)

    def test_s6_trivial_subgroup_in_bounded_memory(self):
        # with K trivial the double cosets are the elements, and delta_a * delta_b
        # = delta_(ab) / |G|, so the commutator is 1/720 at the first
        # non-commuting pair, here the permutations 1 = (4 5) and 2 = (3 4)
        s6 = gelfand.symmetric(6)
        assert s6.mul[1, 2] != s6.mul[2, 1]
        gelfand.cache_clear()                    # count, rather than read a kept report
        tracemalloc.start()
        try:
            rep = gelfand.is_gelfand_pair(s6, [s6.id])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == {"gelfand": False, "max_commutator": 1 / 720, "witness": (1, 2)}
        assert peak < 200e6

    def test_spherical_functions_s6_trivial_subgroup_in_bounded_memory(self):
        s6 = gelfand.symmetric(6)
        gelfand.cache_clear()                    # count, rather than read a kept report
        tracemalloc.start()
        try:
            with pytest.raises(gelfand.NotGelfandPairError, match=r"witness \(1, 2\)"):
                gelfand.spherical_functions(s6, [s6.id])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6


def _as_bytes(functions):
    return [(phi.real.tobytes(), phi.imag.tobytes()) for phi in functions]


class TestPairMemo:
    """Reports and spherical functions kept per pair: the same results,
    fresh objects, and structure constants counted once."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        gelfand.cache_clear()
        yield
        gelfand.cache_clear()

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except gelfand.GroupError as exc:
            return type(exc), str(exc)

    def test_hits_equal_fresh_computations(self):
        pairs = [(name, build(), k) for name, build in gelfand.GROUP_LIBRARY.items()
                 for k in _cyclic_subgroups(build())]
        assert len(pairs) > 50
        for name, group, k in pairs:
            reversed_k = k[::-1]                 # the same K, listed otherwise

            def spherical(seed):
                out = self._outcome(lambda: gelfand.spherical_functions(group, reversed_k,
                                                                        seed=seed))
                return _as_bytes(out) if isinstance(out, list) else out

            first = [self._outcome(lambda: gelfand.is_gelfand_pair(group, k)),
                     spherical(0), spherical(3)]
            hits = [self._outcome(lambda: gelfand.is_gelfand_pair(group, reversed_k)),
                    spherical(0), spherical(3)]
            gelfand.cache_clear()
            fresh = [spherical(3), spherical(0),
                     self._outcome(lambda: gelfand.is_gelfand_pair(group, k))][::-1]
            assert hits == first == fresh, (name, k)

    def test_non_gelfand_pair_raises_on_every_call(self):
        q8 = gelfand.quaternion()
        for _ in range(3):
            with pytest.raises(gelfand.NotGelfandPairError, match="witness"):
                gelfand.spherical_functions(q8, [q8.id])
        assert issubclass(gelfand.NotGelfandPairError, gelfand.GroupError)

    def test_results_are_fresh_objects(self, s3):
        k = [s3.id, first_transposition(s3)]
        q8 = gelfand.quaternion()
        report = gelfand.is_gelfand_pair(q8, [q8.id])
        want = dict(report)
        report["gelfand"] = True
        report["witness"] = None
        assert gelfand.is_gelfand_pair(q8, [q8.id]) == want
        sph = gelfand.spherical_functions(s3, k)
        want = _as_bytes(sph)
        for phi in sph:
            phi[:] = 0.0
        sph.clear()
        assert _as_bytes(gelfand.spherical_functions(s3, k)) == want

    def test_counts_once_per_pair_and_seed(self, monkeypatch):
        calls = []
        count = gelfand._coset_counts

        def counting(group, blocks):
            calls.append(len(blocks))
            return count(group, blocks)

        monkeypatch.setattr(gelfand, "_coset_counts", counting)
        s4 = gelfand.symmetric(4)
        k = _fixing(4, lambda p: p[3] == 3)
        for _ in range(3):
            gelfand.spherical_functions(s4, k)
            gelfand.is_gelfand_pair(s4, k)
        assert len(calls) == 2                   # once for the report, once for the functions
        for _ in range(3):
            gelfand.spherical_functions(s4, k, seed=1)
            gelfand.spherical_functions(s4, k, seed=2)
        assert len(calls) == 4                   # one count per new seed
        q8 = gelfand.quaternion()
        gelfand.is_gelfand_pair(q8, [q8.id])
        for _ in range(3):
            with pytest.raises(gelfand.NotGelfandPairError):
                gelfand.spherical_functions(q8, [q8.id], seed=5)
        assert len(calls) == 5                   # refused from the kept report

    def test_bounded(self, monkeypatch):
        # the first 513 pairs (Z_n, subgroup of index i), i | n, for n = 1, 2, ...
        pairs = list(itertools.islice(
            ((gelfand.cyclic(n), list(range(0, n, i)))
             for n in itertools.count(1) for i in range(1, n + 1) if n % i == 0), 513))
        for group, k in pairs:
            gelfand.is_gelfand_pair(group, k)
        assert gelfand._pair_report.cache_info().currsize == 512
        assert gelfand._spherical_on_cosets.cache_info().maxsize == 512
        calls = []
        count = gelfand._coset_counts

        def counting(group, blocks):
            calls.append(len(blocks))
            return count(group, blocks)

        monkeypatch.setattr(gelfand, "_coset_counts", counting)
        gelfand.is_gelfand_pair(*pairs[-1])
        gelfand.is_gelfand_pair(*pairs[1])
        assert calls == []                       # the newest and the second oldest are kept
        assert gelfand.is_gelfand_pair(*pairs[0])["gelfand"]
        assert len(calls) == 1                   # the oldest went first

    def test_hash_kept_from_construction(self):
        s5 = gelfand.symmetric(5)
        assert hash(s5) == hash(s5.mul.tobytes()) == hash(gelfand.FiniteGroup(s5.mul))


class TestSphericalFunctions:
    def test_z4_characters(self):
        # oracle: the characters j -> i^(jg) of Z4
        sph = gelfand.spherical_functions(gelfand.cyclic(4), [0])
        chars = {tuple(np.round(1j ** (j * np.arange(4)), 9)) for j in range(4)}
        got = {tuple(np.round(phi, 9)) for phi in sph}
        assert got == chars

    def test_normalized_at_identity(self, s3):
        k = [s3.id, first_transposition(s3)]
        for phi in gelfand.spherical_functions(s3, k):
            assert phi[s3.id] == pytest.approx(1.0, abs=1e-12)

    def test_multiplicativity(self, s3):
        k = [s3.id, first_transposition(s3)]
        sph = gelfand.spherical_functions(s3, k)
        basis = gelfand.coset_basis(s3, k)
        for phi in sph:
            for i in range(len(basis)):
                for j in range(len(basis)):
                    conv = gelfand.convolve(basis[i], basis[j], s3)
                    lhs = gelfand.spherical_transform(conv, phi, s3)
                    rhs = (gelfand.spherical_transform(basis[i], phi, s3)
                           * gelfand.spherical_transform(basis[j], phi, s3))
                    assert abs(lhs - rhs) < 1e-10

    def test_multiplicativity_s4_over_s3(self):
        s4 = gelfand.symmetric(4)
        elems = sorted(itertools.permutations(range(4)))
        k = [i for i, e in enumerate(elems) if e[3] == 3]
        basis = gelfand.coset_basis(s4, k)
        sph = gelfand.spherical_functions(s4, k)
        assert len(sph) == len(basis) == 2
        for phi in sph:
            for i in range(len(basis)):
                for j in range(len(basis)):
                    conv = gelfand.convolve(basis[i], basis[j], s4)
                    lhs = gelfand.spherical_transform(conv, phi, s4)
                    rhs = (gelfand.spherical_transform(basis[i], phi, s4)
                           * gelfand.spherical_transform(basis[j], phi, s4))
                    assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("group, k, dims", [
        (lambda: gelfand.symmetric(4), _fixing(4, lambda p: p[3] == 3), [3, 1]),
        (lambda: gelfand.symmetric(4), _fixing(4, lambda p: set(p[:2]) == {0, 1}), [3, 2, 1]),
        (lambda: gelfand.dihedral(5), [0, 5], [2, 2, 1]),
        (lambda: gelfand.cyclic(6), [0], [1] * 6),
        (lambda: gelfand.symmetric(5), _fixing(5, lambda p: p[4] == 4), [4, 1]),
    ], ids=["S4/S3", "S4/S2xS2", "D5/<s>", "Z6/1", "S5/S4"])
    def test_plancherel_dimensions(self, group, k, dims):
        # (1/|G|) sum |phi|^2 = 1/d for the spherical function of an irreducible
        # of dimension d, and the d sum to the index [G:K]
        g = group()
        d = np.array([g.order / np.sum(np.abs(phi) ** 2)
                      for phi in gelfand.spherical_functions(g, k)])
        assert np.max(np.abs(d - np.round(d))) < 1e-9
        assert sorted(np.round(d).astype(int).tolist()) == sorted(dims)
        assert sum(dims) == g.order // len(k)

    def test_count_matches_cosets(self, s3):
        k = [s3.id, first_transposition(s3)]
        sph = gelfand.spherical_functions(s3, k)
        assert len(sph) == len(gelfand.double_cosets(s3, k))

    def test_non_gelfand_rejected(self):
        q8 = gelfand.quaternion()
        with pytest.raises(gelfand.GroupError):
            gelfand.spherical_functions(q8, [q8.id])

    def test_seed_independent_set(self, s3):
        k = [s3.id, first_transposition(s3)]
        a = {tuple(np.round(phi, 8)) for phi in gelfand.spherical_functions(s3, k, seed=0)}
        b = {tuple(np.round(phi, 8)) for phi in gelfand.spherical_functions(s3, k, seed=1)}
        assert a == b


def _dihedral_over_reflection(n):
    """(D_n, <s>): phi_j(r^k) = phi_j(s r^k) = cos(2 pi j k / n) for j = 0..n/2."""
    k = np.arange(2 * n) % n
    return gelfand.dihedral(n), [0, n], [np.cos(2 * np.pi * j * k / n) for j in range(n // 2 + 1)]


def _cyclic_characters(n):
    """(Z_n, 1): the characters k -> e^(2 pi i j k / n)."""
    k = np.arange(n)
    return gelfand.cyclic(n), [0], [np.exp(2j * np.pi * j * k / n) for j in range(n)]


def _spherical_via_cli(group, members, tmp_path):
    """spherical_functions as `gelfand spherical` writes them for a table file."""
    table = tmp_path / "group.txt"
    rows = "\n".join(" ".join(map(str, row)) for row in group.mul)
    table.write_text(f"{group.order}\n{rows}\n")
    out = tmp_path / "spherical.json"
    assert main(["gelfand", "spherical", "--group", str(table),
                 "--subgroup", ",".join(map(str, members)), "--out", str(out)]) == 0
    return [np.array([parse_complex(v) for v in phi])
            for phi in json.loads(out.read_text())["functions"]]


class TestClosedFormSpherical:
    """Spherical functions against closed forms that need no eigen-solve."""

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("pair, n", [*((_dihedral_over_reflection, n) for n in range(3, 13)),
                                         (_cyclic_characters, 200)],
                             ids=[*(f"D{n}/<s>" for n in range(3, 13)), "Z200/1"])
    def test_matches_closed_form(self, pair, n, via, tmp_path):
        group, members, want = pair(n)
        if via == "api":
            got = gelfand.spherical_functions(group, members)
        else:
            got = _spherical_via_cli(group, members, tmp_path)
        assert len(got) == len(want)
        # each computed function is within 1e-10 of a different closed form
        dev = np.array([np.max(np.abs(phi - np.array(want)), axis=1) for phi in got])
        best = dev.argmin(axis=1)
        assert sorted(best) == list(range(len(want)))
        assert dev[np.arange(len(got)), best].max() < 1e-10


class TestPhiSeminorm:
    def test_constant_weight_is_mean(self, s3):
        f = np.arange(6, dtype=float)
        assert gelfand.phi_seminorm(f, np.ones(6), s3) == pytest.approx(
            np.mean(f), abs=1e-14)

    def test_submultiplicative_sweep(self, s3):
        phi = np.ones(6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            f1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            lhs = gelfand.phi_seminorm(gelfand.convolve(f1, f2, s3), phi, s3)
            rhs = gelfand.phi_seminorm(f1, phi, s3) * gelfand.phi_seminorm(f2, phi, s3)
            assert lhs <= rhs + 1e-12

    def test_rejects_non_submultiplicative_weight(self, s3):
        # phi(e * e) = 0.5 > phi(e)^2 = 0.25 breaks submultiplicativity
        phi = np.full(6, 0.5)
        phi[1] = 2.0
        with pytest.raises(ValueError):
            gelfand.phi_seminorm(np.ones(6), phi, s3)

    @pytest.mark.parametrize("n, c", [(8, 5.0), (24, 2.0), (12, 3.3)])
    def test_word_length_weight_accepted(self, n, c):
        # exp(c |g|), |g| = min(g, n - g) the word length, is submultiplicative,
        # but exp(c a) exp(c b) rounds below exp(c (a + b)) for some a, b
        g = np.arange(n)
        phi = np.exp(c * np.minimum(g, n - g))
        assert gelfand.phi_seminorm(np.ones(n), phi, gelfand.cyclic(n)) == pytest.approx(
            np.mean(phi), rel=1e-14)

    def test_rejects_weight_off_by_relative_1e_6(self):
        g = np.arange(8)
        phi = np.exp(5.0 * np.minimum(g, 8 - g))
        phi[2] *= 1 + 1e-6                       # phi(1 + 1) > phi(1)^2
        with pytest.raises(ValueError, match=r"witness pair \(1, 1\)"):
            gelfand.phi_seminorm(np.ones(8), phi, gelfand.cyclic(8))

    def test_rejects_nonpositive_weight(self, s3):
        with pytest.raises(ValueError):
            gelfand.phi_seminorm(np.ones(6), np.zeros(6), s3)
