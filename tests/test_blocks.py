"""Block partitions, defects, projective characters and Cartan matrices,
against hand-checked classical values."""

import copy
import io
import json

from conftest import all_datasets

from charcond.blocks import (cartan_matrix, nu_p, partition_blocks,
                             projective_characters)
from charcond.cli import EXIT_DATA, run
from charcond.cyclo import ZERO
from charcond.tables import default_corpus_dir, virtual_character


def summary(ds, p):
    """(sorted irr indices, defect) per block, in block order."""
    return [(tuple(sorted(b.irr_indices)), b.defect)
            for b in partition_blocks(ds, p)]


class TestPartitions:
    def test_nu_p(self):
        assert nu_p(360, 2) == 3 and nu_p(360, 3) == 2 and nu_p(7, 2) == 0

    def test_s3(self, corpus):
        # two blocks at p=2 (the 2-dim has defect 0), one at p=3,
        # all singletons at p=5
        assert summary(corpus["S3"], 2) == [((0, 1), 1), ((2,), 0)]
        assert summary(corpus["S3"], 3) == [((0, 1, 2), 1)]
        assert summary(corpus["S3"], 5) == [((0,), 0), ((1,), 0), ((2,), 0)]

    def test_a5_at_5(self, corpus):
        assert summary(corpus["A5"], 5) == [((0, 1, 2, 3), 1), ((4,), 0)]

    def test_a5_at_2(self, corpus):
        blocks = summary(corpus["A5"], 2)
        assert blocks[0][1] == 2 and len(blocks[0][0]) == 4
        assert sum(len(b) for b, _ in blocks) == 5

    def test_sl23_at_3(self, corpus):
        # linear characters + the three 2-dims + a defect-0 block
        got = summary(corpus["SL(2,3)"], 3)
        assert len(got) == 3
        assert {len(irr) for irr, _ in got} == {3, 3, 1}
        assert min(d for _, d in got) == 0

    def test_q8_single_block(self, corpus):
        assert summary(corpus["Q8"], 2) == [((0, 1, 2, 3, 4), 3)]

    def test_principal_block_has_full_defect(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            blocks = partition_blocks(ds, p)
            trivial = next(b for b in blocks if 0 in b.irr_indices)
            assert trivial.defect == nu_p(ds.table.group_order, p)

    def test_blocks_partition_everything(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            blocks = partition_blocks(ds, p)
            seen = sorted(i for b in blocks for i in b.irr_indices)
            assert seen == list(range(ds.table.num_classes))
            ibr_seen = sorted(j for b in blocks for j in b.ibr_indices)
            assert ibr_seen == list(range(len(ds.brauer(p).ibr)))

    def test_blocks_hold_their_labels_as_ascending_tuples(self, corpus):
        # every held dataset: the groups, their section centralizers and
        # their subgroups, at each of its primes
        seen = 0
        for ds in all_datasets(corpus):
            for p in ds.primes:
                bd = ds.brauer(p)
                for b in ds.blocks(p):
                    assert b.irr_indices == tuple(
                        i for i, label in enumerate(bd.block_of_irr)
                        if label == b.id)
                    assert b.ibr_indices == tuple(
                        j for j, label in enumerate(bd.block_of_ibr)
                        if label == b.id)
                seen += 1
        assert seen == 74


class TestProjectives:
    def test_vanish_on_singular_classes(self, corpus):
        # projective_characters holds only coordinates; the values, built
        # over CycloNum, vanish off the p-regular classes on every table
        # the corpus holds: groups, section centralizers and subgroups
        pairs = [(ds, p) for ds in all_datasets(corpus) for p in ds.primes]
        assert len(pairs) > 19
        for ds, p in pairs:
            table = ds.table
            for phi in projective_characters(ds.brauer(p)):
                psi = virtual_character(table, phi)
                for c, cls in enumerate(table.classes):
                    if cls.element_order % p == 0:
                        assert not psi[c], (ds.name, p, phi, c)

    def test_degree_divisible_by_p_part(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            table = ds.table
            pa = 1
            while ds.table.group_order % (pa * p) == 0:
                pa *= p
            for phi in projective_characters(ds.brauer(p)):
                psi = virtual_character(table, phi)
                deg = psi[table.identity_class].rational_value()
                assert deg % pa == 0

    def test_columns_of_the_decomposition_matrix(self, corpus, group_primes):
        for name, p in group_primes:
            dec = corpus[name].brauer(p).decomposition
            assert projective_characters(corpus[name].brauer(p)) == \
                [tuple(row[j] for row in dec) for j in range(len(dec[0]))]

    def test_decomposition_entry_plus_one_is_data_error(self, tmp_path,
                                                        manifest, capsys):
        # one D entry + 1 breaks chi = D * IBr on the p-regular classes, so
        # the load stops before any projective is formed
        for entry in manifest["groups"]:
            data = json.loads((default_corpus_dir() /
                               entry["file"]).read_text())
            for key in data["primes"]:
                tampered = copy.deepcopy(data)
                tampered["primes"][key]["decomposition"][0][0] += 1
                corpus = tmp_path / f"{entry['name']}-{key}"
                corpus.mkdir()
                (corpus / entry["file"]).write_text(json.dumps(tampered))
                (corpus / "manifest.json").write_text(json.dumps(
                    {"format": 1, "groups": [{"file": entry["file"]}]}))
                out = io.StringIO()
                code = run(["validate", "--corpus", str(corpus)], out=out)
                assert (code, out.getvalue()) == (EXIT_DATA, ""), \
                    (entry["file"], key)
                err = capsys.readouterr().err
                assert f"{entry['file']}.primes.{key}: decomposition row 0 " \
                    "does not reproduce" in err, err

    def test_cartan_from_inner_products(self, corpus):
        # <Psi_i, Psi_j> recovers the Cartan matrix via D^T D
        ds = corpus["S3"]
        bd = ds.brauer(3)
        cartan = cartan_matrix(bd)
        assert cartan == [[2, 1], [1, 2]]

    def test_known_cartan_matrices(self, corpus):
        assert cartan_matrix(corpus["S3"].brauer(2)) == [[2, 0], [0, 1]]
        assert cartan_matrix(corpus["A4"].brauer(2)) == \
            [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
        assert cartan_matrix(corpus["A5"].brauer(5)) == \
            [[2, 1, 0], [1, 3, 0], [0, 0, 1]]

    def test_cartan_determinant_is_p_power(self, corpus, group_primes):
        for name, p in group_primes:
            cartan = cartan_matrix(corpus[name].brauer(p))
            det = _det(cartan)
            assert det > 0
            while det % p == 0:
                det //= p
            assert det == 1


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


class TestDecompositionData:
    def test_s3_decomposition_at_3(self, corpus):
        assert [list(r) for r in corpus["S3"].brauer(3).decomposition] == \
            [[1, 0], [0, 1], [1, 1]]

    def test_a5_decomposition_at_5(self, corpus):
        assert [list(r) for r in corpus["A5"].brauer(5).decomposition] == \
            [[1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]

    def test_brauer_characters_lift_ordinary_values(self, corpus, group_primes):
        # chi(s) = sum_phi d_{chi,phi} phi(s) on every p-regular class
        for name, p in group_primes:
            ds = corpus[name]
            bd = ds.brauer(p)
            for chi in range(ds.table.num_classes):
                for k, s in enumerate(bd.regular_classes):
                    total = sum((bd.decomposition[chi][j] * bd.ibr[j][k]
                                 for j in range(len(bd.ibr))), start=ZERO)
                    assert total == ds.table.irreducibles[chi][s]
