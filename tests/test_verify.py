"""Verification suites for the conductor identities."""

from charcond.tables import virtual_character
from charcond.verify import (check_cor05, check_projective_invariance,
                             check_restriction_props, check_theorem1,
                             cor05_suite, projective_invariance_suite,
                             random_virtual_characters, theorem1_suite)


class TestConductorIdentity:
    def test_all_irreducibles(self, corpus, group_primes):
        for name, p in group_primes:
            rep = theorem1_suite(corpus[name], p)
            assert rep.passed, (name, p)

    def test_seeded_virtual_characters(self, corpus):
        ds = corpus["S4"]
        rep = theorem1_suite(ds, 2, samples=20, seed=123)
        assert rep.passed
        assert len(rep.records) > ds.table.num_classes

    def test_sampling_is_deterministic(self, corpus):
        ds = corpus["A5"]
        a = [psi.values for _, psi in
             random_virtual_characters(ds, 5, 5, seed=42)]
        b = [psi.values for _, psi in
             random_virtual_characters(ds, 5, 5, seed=42)]
        assert a == b
        c = [psi.values for _, psi in
             random_virtual_characters(ds, 5, 5, seed=43)]
        assert a != c

    def test_single_character(self, corpus):
        ds = corpus["A5"]
        rec = check_theorem1(ds, 5, ds.table.irreducible(1))
        assert rec.passed and rec.lhs == rec.rhs == 5


class TestConductorMaximum:
    def test_all_groups(self, corpus, group_primes):
        for name, p in group_primes:
            assert cor05_suite(corpus[name], p).passed, (name, p)

    def test_witness_is_recorded(self, corpus):
        ds = corpus["A5"]
        rec = check_cor05(ds, 5, ds.table.irreducible(1))
        assert rec.passed and rec.witness is not None
        u_class, phi = rec.witness
        assert ds.table.classes[u_class].element_order == 5


class TestProjectiveInvariance:
    def test_all_groups(self, corpus, group_primes):
        for name, p in group_primes:
            assert projective_invariance_suite(corpus[name], p).passed, \
                (name, p)

    def test_single_character(self, corpus):
        rec = check_projective_invariance(corpus["S3"], 3, 2)
        assert rec.passed


class TestRestriction:
    def test_a5_d10_values(self, corpus):
        rep = check_restriction_props(corpus["A5"], 5)
        assert not rep.not_applicable and rep.passed
        ti = {r.character: r for r in rep.records
              if r.check == "restriction-ti"}
        # triple equality values in degree order 1, 3, 3, 4
        assert [ti[f"chi{i}"].lhs for i in range(4)] == [1, 5, 5, 1]
        for i in range(4):
            assert ti[f"chi{i}"].rhs == (ti[f"chi{i}"].lhs,) * 2

    def test_cyclic_defect_bijection(self, corpus):
        rep = check_restriction_props(corpus["A5"], 5)
        recs = [r for r in rep.records if r.check == "cyclic-defect-bijection"]
        assert recs and all(r.passed for r in recs)
        bij = next(r for r in recs if r.character == "gamma-bijective")
        assert bij.lhs == bij.rhs == [0, 1, 2, 3]

    def test_not_applicable_without_subgroup(self, corpus):
        rep = check_restriction_props(corpus["S4"], 2)
        assert rep.not_applicable

    def test_monotonicity_records(self, corpus):
        rep = check_restriction_props(corpus["A5"], 5)
        mono = [r for r in rep.records if r.check == "restriction-monotonic"]
        assert len(mono) == 5 and all(r.passed for r in mono)
