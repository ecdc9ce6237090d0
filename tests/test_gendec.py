"""Generalised decomposition numbers: the integer pass against the CycloNum
references it replaced, round trips and vanishing constraints, plus
hand-computed small cases."""

import random

import pytest
from conftest import section_row

from charcond import gendec
from charcond.cyclo import ZERO, CycloNum, lincomb, p_part
from charcond.gendec import (GendecError, check_second_main, gendec_all,
                             section_values)
from charcond.verify import virtual_gendec_row


class TestMethodEquivalence:
    def test_integer_pass_equals_both_references(self, corpus, group_primes,
                                                 reference_gendec):
        for name, p in group_primes:
            gm = gendec_all(corpus[name], p)
            rec, sol = reference_gendec[(name, p)]
            assert gm.columns == list(rec) == list(sol), (name, p)
            for key, col in gm.entries.items():
                assert col == rec[key] == sol[key], (name, p, key)
                assert [x.order for x in col] == \
                    [x.order for x in rec[key]], (name, p, key)

    def test_ordinary_section_is_decomposition_matrix(self, corpus,
                                                      group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            gm = gendec_all(ds, p)
            ident = ds.table.identity_class
            want = ds.brauer(p).decomposition
            for chi in range(ds.table.num_classes):
                row = section_row(gm, chi, ident)
                assert row == [CycloNum.from_rational(e) for e in want[chi]]

    def test_virtual_row_equals_lincomb_row(self, corpus, group_primes):
        rng = random.Random(11)
        for name, p in group_primes:
            ds = corpus[name]
            gm = ds.gendec(p)
            for _ in range(5):
                coords = [rng.randint(-3, 3)
                          for _ in range(ds.table.num_classes)]
                row = virtual_gendec_row(ds, p, coords)
                assert list(row) == gm.columns
                for key, (n, vec) in row.items():
                    got = CycloNum(n, vec)
                    want = lincomb(zip(coords, gm.entries[key]))
                    assert got == want and got.order == want.order, \
                        (name, p, key)

    @pytest.mark.parametrize("name,p", [("A4", 2), ("SL(2,3)", 2),
                                        ("F20", 5)])
    def test_psi_at_s_instead_of_inverse_is_caught(self, corpus,
                                                   monkeypatch, name, p):
        # the pairs whose projectives take non-real values on C_p': with the
        # kernel's conjugation cancelled, reciprocity pairs chi with Psi(s)
        # in place of Psi(s^-1) = conj Psi(s), and the product check sees
        # the result fail to reproduce chi(us)
        real = gendec.hermitian_int

        def unconjugated(n, weights, rows, cols):
            return real(n, weights, rows,
                        [[[(-e, a) for e, a in y] for y in col]
                         for col in cols])
        monkeypatch.setattr(gendec, "hermitian_int", unconjugated)
        with pytest.raises(GendecError, match="do not reproduce"):
            gendec_all(corpus[name], p)


class TestRoundTrip:
    def test_values_reconstructed(self, corpus, group_primes):
        # sum_phi d^u_{chi,phi} phi(s) = chi(us) for every ingested value
        for name, p in group_primes:
            ds = corpus[name]
            gm = gendec_all(ds, p)
            for sec in ds.sections(p):
                bd = sec.centralizer.brauer(p)
                for chi in range(ds.table.num_classes):
                    d_row = section_row(gm, chi, sec.u_class)
                    want = section_values(ds.table, chi, sec, p)
                    for k in range(len(bd.regular_classes)):
                        got = sum((d_row[j] * bd.ibr[j][k]
                                   for j in range(len(bd.ibr))), start=ZERO)
                        assert got == want[k]

    def test_entries_live_in_u_order_field(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            gm = gendec_all(ds, p)
            for (u, phi), col in gm.entries.items():
                u_order = ds.table.classes[u].element_order
                for val in col:
                    assert u_order % val.order == 0
                    assert val.is_algebraic_integer()


class TestVanishing:
    def test_no_second_main_violations(self, corpus, group_primes):
        for name, p in group_primes:
            assert check_second_main(corpus[name], p) == []

    def test_s3_2dim_vanishes_at_involution(self, corpus):
        # the defect-0 character of S3 has no non-ordinary numbers at p=2
        ds = corpus["S3"]
        gm = gendec_all(ds, 2)
        sec = next(s for s in ds.sections(2)
                   if ds.table.classes[s.u_class].element_order == 2)
        assert all(not v for v in section_row(gm, 2, sec.u_class))

    def test_a5_defect0_vanishes_on_5_sections(self, corpus):
        ds = corpus["A5"]
        gm = gendec_all(ds, 5)
        for sec in ds.sections(5):
            if ds.table.classes[sec.u_class].element_order == 5:
                assert all(not v for v in section_row(gm, 4, sec.u_class))


class TestSmallCases:
    def test_s3_at_3_nontrivial_section(self, corpus):
        # C_S3(3a) = C3 has a single Brauer character; d^{3a}_chi = chi(3a)
        ds = corpus["S3"]
        gm = gendec_all(ds, 3)
        sec = next(s for s in ds.sections(3)
                   if ds.table.classes[s.u_class].element_order == 3)
        col = [section_row(gm, chi, sec.u_class) for chi in range(3)]
        assert [c[0] for c in col] == \
            [ds.table.irreducibles[chi][sec.u_class] for chi in range(3)]

    def test_c4_entries_need_fourth_roots(self, corpus):
        # faithful characters of C4 have generalised numbers of conductor 4
        ds = corpus["C4"]
        gm = gendec_all(ds, 2)
        orders = {val.order for col in gm.entries.values() for val in col}
        assert 4 in orders

    def test_conductors_bounded_by_p_part(self, corpus, group_primes):
        for name, p in group_primes:
            gm = gendec_all(corpus[name], p)
            for col in gm.entries.values():
                for val in col:
                    assert val.order == p_part(val.order, p) or not val


class TestIntegrality:
    def test_non_integral_entry_is_rejected(self, corpus,
                                            half_gendec_entries):
        with pytest.raises(GendecError, match="d\\^u entry 1/2 at u_class "
                           ".* is not an algebraic integer of Q\\(zeta_"):
            gendec_all(corpus["S3"], 3)
