import itertools

import numpy as np
import pytest

from funcalg import gelfand


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
        # a Latin square with identity that is not a group table
        table = np.array([[0, 1, 2, 3, 4],
                          [1, 0, 3, 4, 2],
                          [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1],
                          [4, 3, 1, 2, 0]])
        with pytest.raises(gelfand.GroupError):
            gelfand.FiniteGroup(table)

    def test_rejects_no_identity(self):
        with pytest.raises(gelfand.GroupError):
            gelfand.FiniteGroup(np.array([[0, 0], [0, 0]]))

    def test_subgroup_validation(self, s3):
        t = first_transposition(s3)
        members = gelfand.subgroup(s3, [s3.id, t])
        assert set(members) == {s3.id, t}
        with pytest.raises(gelfand.GroupError):
            gelfand.subgroup(s3, [t])  # missing identity

    def test_load_group_table(self, tmp_path):
        z3 = gelfand.cyclic(3)
        path = tmp_path / "z3.txt"
        rows = "\n".join(" ".join(map(str, row)) for row in z3.mul)
        path.write_text(f"3\n{rows}\n")
        loaded = gelfand.load_group_table(path)
        assert np.array_equal(loaded.mul, z3.mul)


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
        counts = gelfand._coset_counts(s4, blocks)
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

    def test_rejects_nonpositive_weight(self, s3):
        with pytest.raises(ValueError):
            gelfand.phi_seminorm(np.ones(6), np.zeros(6), s3)
