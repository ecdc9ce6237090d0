"""Dataset ingestion, validation, and class-function arithmetic."""

import copy
import json
import random
from fractions import Fraction

import pytest

from charcond.blocks import projective_characters
from charcond.cyclo import CycloNum
from charcond.tables import (ClassFunction, DatasetError, char_conductor,
                             default_corpus_dir, inner_product, load_dataset,
                             p_decompose, power_class, virtual_character)

ONE = CycloNum.from_rational(1)


def degrees(table):
    return [int(table.irreducibles[i][table.identity_class].rational_value())
            for i in range(table.num_classes)]


class TestCorpusShape:
    EXPECTED = {
        "C4": (4, 4), "S3": (6, 3), "D8": (8, 5), "Q8": (8, 5),
        "A4": (12, 4), "SL(2,3)": (24, 7), "S4": (24, 5), "A5": (60, 5),
        "D10": (10, 4), "F20": (20, 5),
    }

    def test_orders_and_class_counts(self, corpus):
        got = {name: (ds.table.group_order, ds.table.num_classes)
               for name, ds in corpus.items()}
        assert got == self.EXPECTED

    def test_degree_lists(self, corpus):
        assert degrees(corpus["S3"].table) == [1, 1, 2]
        assert degrees(corpus["Q8"].table) == [1, 1, 1, 1, 2]
        assert degrees(corpus["S4"].table) == [1, 1, 2, 3, 3]
        assert degrees(corpus["A5"].table) == [1, 3, 3, 4, 5]
        assert degrees(corpus["SL(2,3)"].table) == [1, 1, 1, 2, 2, 2, 3]

    def test_sum_of_squares_is_group_order(self, corpus):
        for ds in corpus.values():
            assert sum(d * d for d in degrees(ds.table)) == ds.table.group_order

    def test_class_sizes_sum_to_order(self, corpus):
        for ds in corpus.values():
            assert sum(c.size for c in ds.table.classes) == ds.table.group_order

    def test_a5_golden_ratio_values(self, corpus):
        # both degree-3 characters take values x with x^2 = x + 1 on the
        # order-5 classes
        table = corpus["A5"].table
        for chi in (1, 2):
            for c, cls in enumerate(table.classes):
                if cls.element_order == 5:
                    v = table.irreducibles[chi][c]
                    assert v * v == v + ONE


class TestClassFunctions:
    def test_row_orthonormality(self, corpus):
        table = corpus["S4"].table
        for i in range(table.num_classes):
            for j in range(table.num_classes):
                ip = inner_product(table.irreducible(i),
                                   table.irreducible(j))
                want = ONE if i == j else CycloNum.from_rational(0)
                assert ip == want

    def test_integer_coords_round_trip(self, corpus):
        table = corpus["A5"].table
        coords = [2, -1, 0, 3, -2]
        psi = virtual_character(table, coords)
        assert list(psi.integer_coords()) == coords
        assert psi.is_virtual_character()

    def test_non_virtual_function_detected(self, corpus):
        table = corpus["S3"].table
        fn = ClassFunction(table, [ONE, ONE, CycloNum.from_rational(0)])
        assert not fn.is_virtual_character()

    def test_char_conductor_examples(self, corpus):
        table = corpus["A5"].table
        assert [char_conductor(table.irreducible(i)) for i in range(5)] == \
            [1, 5, 5, 1, 1]
        assert [char_conductor(table.irreducible(i), 5) for i in range(5)] == \
            [1, 5, 5, 1, 1]
        assert [char_conductor(table.irreducible(i), 2) for i in range(5)] == \
            [1, 1, 1, 1, 1]
        table = corpus["C4"].table
        conds = sorted(char_conductor(table.irreducible(i)) for i in range(4))
        assert conds == [1, 1, 4, 4]


class TestHeldCoords:
    """Coordinates a class function holds from its construction equal the
    ones inner products against Irr(G) recover from its values."""

    @staticmethod
    def recomputed(fn):
        table = fn.table
        return tuple(inner_product(fn, table.irreducible(i)).rational_value()
                     for i in range(table.num_classes))

    def test_held_equals_recomputed(self, corpus, group_primes):
        rng = random.Random(11)
        for name, p in group_primes:
            table = corpus[name].table
            k = table.num_classes
            irr = [table.irreducible(i) for i in range(k)]
            proj = projective_characters(table, corpus[name].brauer(p))
            rand = [virtual_character(table,
                                      [rng.randint(-3, 3) for _ in range(k)])
                    for _ in range(3)]
            fns = irr + proj + rand
            fns += [rng.choice(fns) + rng.choice(fns) for _ in range(3)]
            fns += [rng.choice(fns) - rng.choice(fns) for _ in range(3)]
            fns += [rng.randint(-3, 3) * rng.choice(fns) for _ in range(3)]
            for fn in fns:
                assert fn._coords is not None
                assert fn.irr_coords == self.recomputed(fn)
                # the same values without held coordinates take the slow path
                bare = ClassFunction(table, fn.values)
                assert bare.irr_coords == fn.irr_coords
                assert bare.integer_coords() == fn.integer_coords()

    def test_wrong_coords_length(self, corpus):
        table = corpus["S3"].table
        with pytest.raises(DatasetError):
            ClassFunction(table, table.irreducibles[0], [1, 0])
        with pytest.raises(DatasetError):
            virtual_character(table, [1, 0, 0, 0])

    def test_non_integer_coords(self, corpus):
        table = corpus["S3"].table
        with pytest.raises(DatasetError):
            ClassFunction(table, table.irreducibles[0], [Fraction(1, 2), 0, 0])


class TestPowerMaps:
    def test_power_class_inverse(self, corpus):
        for ds in corpus.values():
            table = ds.table
            for c, cls in enumerate(table.classes):
                inv = power_class(table, c, cls.element_order - 1)
                # the inverse class carries the conjugate character values
                for i in range(table.num_classes):
                    assert table.irreducibles[i][inv] == \
                        table.irreducibles[i][c].conjugate()

    def test_power_class_composition(self, corpus):
        table = corpus["F20"].table
        for c in range(table.num_classes):
            assert power_class(table, power_class(table, c, 2), 3) == \
                power_class(table, c, 6)

    def test_p_decompose(self, corpus):
        # g = g_p * g_{p'} with commuting p-power and p'-parts
        table = corpus["SL(2,3)"].table
        for c, cls in enumerate(table.classes):
            u, s = p_decompose(table, c, 2)
            u_ord = table.classes[u].element_order
            s_ord = table.classes[s].element_order
            assert u_ord * s_ord == cls.element_order
            assert u_ord & (u_ord - 1) == 0 and s_ord % 2 == 1


class TestValidation:
    def _raw(self, name="S3"):
        path = default_corpus_dir() / f"{name}.json"
        return json.loads(path.read_text()), path

    def _load(self, data, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        return load_dataset(path)

    def test_tampered_value_fails_orthogonality(self, tmp_path):
        data, _ = self._raw()
        data = copy.deepcopy(data)
        data["irreducibles"][2][1] = "1"
        with pytest.raises(DatasetError):
            self._load(data, tmp_path)

    def test_tampered_class_size(self, tmp_path):
        data, _ = self._raw()
        data = copy.deepcopy(data)
        data["classes"][1]["size"] = 2
        with pytest.raises(DatasetError):
            self._load(data, tmp_path)

    def test_tampered_block_label(self, tmp_path):
        data, _ = self._raw()
        data = copy.deepcopy(data)
        data["primes"]["2"]["block_of_irr"] = ["B0", "B1", "B0"]
        with pytest.raises((DatasetError, ValueError)):
            self._load(data, tmp_path)

    def test_unknown_format_rejected(self, tmp_path):
        data, _ = self._raw()
        data = copy.deepcopy(data)
        data["format"] = 99
        with pytest.raises(DatasetError):
            self._load(data, tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((DatasetError, OSError)):
            load_dataset(tmp_path / "nope.json")
