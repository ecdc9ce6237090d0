"""Dataset ingestion, validation, and class functions as lists of values."""

import copy
import json
import random
import re
import time
from fractions import Fraction
from math import lcm

import pytest
from conftest import all_datasets, inverse_class

from charcond import linalg, tables
from charcond.blocks import (BlockError, BrauerData, partition_blocks,
                             projective_characters, validate_brauer)
from charcond.cyclo import CycloNum, hermitian_int, lincomb, parse_cyclo
from charcond.gendec import gendec_all
from charcond.tables import (CharTable, DatasetError, char_conductor,
                             default_corpus_dir, inner_product, load_corpus,
                             load_dataset, virtual_character)

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
                ip = inner_product(table, table.irreducibles[i],
                                   table.irreducibles[j])
                want = ONE if i == j else CycloNum.from_rational(0)
                assert ip == want

    def test_integer_coords_round_trip(self, corpus):
        table = corpus["A5"].table
        coords = [2, -1, 0, 3, -2]
        values = virtual_character(table, coords)
        assert [inner_product(table, values, row) for row in
                table.irreducibles] == list(map(CycloNum.from_rational, coords))

    def test_char_conductor_examples(self, corpus):
        table = corpus["A5"].table
        assert [char_conductor(row) for row in table.irreducibles] == \
            [1, 5, 5, 1, 1]
        assert [char_conductor(row, 5) for row in table.irreducibles] == \
            [1, 5, 5, 1, 1]
        assert [char_conductor(row, 2) for row in table.irreducibles] == \
            [1, 1, 1, 1, 1]
        table = corpus["C4"].table
        conds = sorted(char_conductor(row) for row in table.irreducibles)
        assert conds == [1, 1, 4, 4]


class TestHermitianKernel:
    def test_kernel_equals_inner_products(self, corpus):
        # |G| <chi_i, chi_j> by `hermitian_int` on integers against the
        # CycloNum inner product, for every row pair of every loaded table;
        # a table that several centralizers or subgroups share is run once
        distinct = {(ds.table.group_name, repr(ds.table.irreducibles)):
                    ds.table for ds in all_datasets(corpus)}
        for table in distinct.values():
            n = lcm(*[v.order for row in table.irreducibles for v in row])
            rows = [[v.int_terms(n) for v in row]
                    for row in table.irreducibles]
            sums = hermitian_int(n, [c.size for c in table.classes], rows,
                                 rows)
            for i, row in enumerate(sums):
                for j, vec in enumerate(row):
                    want = table.group_order * inner_product(
                        table, table.irreducibles[i], table.irreducibles[j])
                    assert CycloNum(n, vec) == want, (table.group_name, i, j)


class TestPowerMaps:
    def test_inverse_class_carries_conjugate_values(self, corpus):
        # the loaded power maps agree with conjugation: g^-1, walked through
        # them, carries the conjugate of every character value at g
        for ds in all_datasets(corpus):
            table = ds.table
            for c in range(table.num_classes):
                inv = inverse_class(table, c)
                for row in table.irreducibles:
                    assert row[inv] == row[c].conjugate(), \
                        (table.group_name, c)


class TestHeldCoords:
    """The Irr coordinates a caller holds equal the ones inner products
    against Irr(G) recover from the values `virtual_character` returns:
    for irreducible, projective and random coordinates, and their sums,
    differences and integer multiples."""

    def test_held_equals_recomputed(self, corpus, group_primes):
        rng = random.Random(11)
        for name, p in group_primes:
            table = corpus[name].table
            k = table.num_classes
            coords = [[int(i == j) for j in range(k)] for i in range(k)]
            coords += projective_characters(corpus[name].brauer(p))
            coords += [[rng.randint(-3, 3) for _ in range(k)]
                       for _ in range(3)]
            pick = [rng.sample(coords, 2) for _ in range(6)]
            coords += [[a + b for a, b in zip(x, y)] for x, y in pick[:3]]
            coords += [[a - b for a, b in zip(x, y)] for x, y in pick[3:]]
            coords += [[m * a for a in rng.choice(coords)]
                       for m in (rng.randint(-3, 3) for _ in range(3))]
            for want in coords:
                values = virtual_character(table, want)
                assert [inner_product(table, values, row).rational_value()
                        for row in table.irreducibles] == list(want)

    def test_wrong_coords_length(self, corpus):
        table = corpus["S3"].table
        for coords in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(DatasetError, match=re.escape(
                    f"class function on S3: Irr coordinates "
                    f"{tuple(coords)} are not 3 integers")):
                virtual_character(table, coords)

    def test_non_integer_coords(self, corpus):
        table = corpus["S3"].table
        with pytest.raises(DatasetError, match="are not 3 integers"):
            virtual_character(table, [Fraction(1, 2), 0, 0])


class TestHeldStructure:
    """A dataset computes its blocks, projectives and d^u at a prime once
    and then returns the same object; it equals a fresh computation."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return load_corpus()

    def test_accessors_hold_their_value(self, fresh, group_primes):
        for name, p in group_primes:
            ds = fresh[name]
            assert ds.blocks(p) is ds.blocks(p)
            assert ds.projectives(p) is ds.projectives(p)
            assert ds.gendec(p) is ds.gendec(p)
            for sec in ds.sections(p):
                cent = sec.centralizer
                assert cent.projectives(p) is cent.projectives(p)

    def test_held_equals_fresh_computation(self, fresh, group_primes):
        for name, p in group_primes:
            ds = fresh[name]
            assert ds.blocks(p) == partition_blocks(ds, p)
            assert ds.projectives(p) == projective_characters(ds.brauer(p))
            assert ds.gendec(p) == gendec_all(ds, p)
        for emb in fresh["A5"].subgroups:
            assert emb.subgroup.blocks(5) == partition_blocks(emb.subgroup, 5)

    @pytest.mark.parametrize("accessor", ["blocks", "projectives", "gendec",
                                          "brauer", "sections"])
    def test_uncovered_prime_is_data_error(self, fresh, accessor):
        with pytest.raises(DatasetError, match="A5: no Brauer data for p=7"):
            getattr(fresh["A5"], accessor)(7)


class TestParseOnce:
    def test_each_distinct_string_parsed_once_per_load(self, monkeypatch):
        parsed = []
        real = tables.parse_cyclo
        monkeypatch.setattr(tables, "parse_cyclo",
                            lambda text: parsed.append(text) or real(text))

        def strings(node, key=None):
            if isinstance(node, dict):
                return [s for k, v in node.items() for s in strings(v, k)]
            if isinstance(node, list):
                return [s for v in node for s in strings(v, key)]
            return [node] if key in ("irreducibles", "ibr") else []

        for path in sorted(default_corpus_dir().glob("*.json")):
            if path.name == "manifest.json":
                continue
            parsed.clear()
            tables.load_dataset(path)
            values = strings(json.loads(path.read_text()))
            assert len(values) > len(parsed) == len(set(parsed))
            assert set(parsed) == set(values), path.name


    def test_digit_bound_is_inclusive(self):
        bound = "9" * tables.DIGITS_MAX
        row = [bound, f"-{bound}*E(4)^3"]
        assert tables._parse_values([row], "t", 4, {}) == \
            [[int(bound), -int(bound) * parse_cyclo("E(4)^3")]]
        with pytest.raises(DatasetError, match=r"^t\[0\]\[1\]: integer has "
                           r"too many digits \(at position 5\)$"):
            tables._parse_values([["1", "E(4)-9" + bound]], "t", 4, {})

    def test_parsed_value_bound_is_inclusive(self):
        # numbers within the digit bound whose value is not: 10^1000 as a
        # numerator, and lcm(2, 10^1000 - 1) as a denominator
        nines = "9" * tables.DIGITS_MAX
        row = ["9" * (tables.DIGITS_MAX - 1) + "8+1", f"1/{nines}*E(4)"]
        assert tables._parse_values([row], "t", 4, {}) == \
            [[int(nines), Fraction(1, int(nines)) * parse_cyclo("E(4)")]]
        for value in (f"{nines}+1", f"1/2+1/{nines}*E(4)"):
            with pytest.raises(DatasetError, match=r"^t\[0\]\[1\]: value's "
                               r"numerator or denominator exceeds 1000 "
                               r"digits$"):
                tables._parse_values([["1", value]], "t", 4, {})


class TestValidateOnce:
    @staticmethod
    def counted(monkeypatch) -> dict:
        """Calls of `_once` and of the two checks it runs, by name."""
        counts = {}
        for module, name in ((tables, "_once"), (tables, "_validate_table"),
                             (tables._blocks, "validate_brauer")):
            def spy(*args, _real=getattr(module, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
        return counts

    def test_each_distinct_table_and_block_checked_once_per_load(
            self, monkeypatch):
        counts = self.counted(monkeypatch)
        load_corpus()
        # 65 tables and 74 Brauer blocks, 16 and 25 of them distinct in the
        # corpus (32 and 41 in their own file)
        assert counts == {"_once": 65 + 74, "_validate_table": 16,
                          "validate_brauer": 25}

    # C4.json holds its table and Brauer block five times: at the top and
    # in each section's centralizer; one changed entry makes a fifth one new
    @pytest.mark.parametrize("where,value,error,message,checks", [
        (("irreducibles", 3, 2), "1", DatasetError,
         r"^broken\.json\.primes\.2\.sections\[2\]\.centralizer: row "
         r"orthogonality fails for rows 0,3 \(inner product 1/2\)$", (2, 1)),
        (("primes", "2", "decomposition", 1, 0), 2, BlockError,
         r"^broken\.json\.primes\.2\.sections\[2\]\.centralizer\.primes\.2: "
         r"decomposition row 1 does not reproduce the character value on "
         r"regular class 0$", (1, 2))])
    def test_changed_duplicate_is_checked_at_its_own_path(
            self, tmp_path, monkeypatch, where, value, error, message,
            checks):
        data = json.loads((default_corpus_dir() / "C4.json").read_text())
        node = data["primes"]["2"]["sections"][2]["centralizer"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        counts = self.counted(monkeypatch)
        with pytest.raises(error, match=message):
            load_dataset(path)
        # (tables, blocks) checked: the top level's, then the changed one
        assert (counts["_validate_table"], counts["validate_brauer"]) == \
            checks


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
        with pytest.raises(DatasetError, match=r"^broken\.json: row "
                           r"orthogonality fails for rows 0,2 \(inner "
                           r"product 1/2\)$"):
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

    # inputs of checks that another check implies, and so were removed
    @pytest.mark.parametrize("name,where,value,message", [
        ("S3", ("classes", 0, "powermaps", "2"), 1,
         "broken.json.classes[0] (1a): g^2 lands in class of order 2, "
         "expected 1"),
        ("A5", ("subgroups", 0, "fusion", 0), 1,
         "broken.json.subgroups[0].fusion[0]: fusion does not preserve "
         "element order (1 vs 2)"),
        ("S3", ("primes", "3", "decomposition"), [[1, 0], [0, 0], [1, 0]],
         "broken.json.primes.3: decomposition row 1 does not reproduce the "
         "character value on regular class 0"),
    ], ids=["identity-power-map", "identity-fusion", "zero-d-column"])
    def test_implied_checks_still_reject(self, tmp_path, name, where, value,
                                         message):
        data, _ = self._raw(name)
        holder = data
        for key in where[:-1]:
            holder = holder[key]
        holder[where[-1]] = value
        with pytest.raises((DatasetError, BlockError),
                           match=re.escape(message)):
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


def reference_orthogonality(table, path):
    """Orthogonality over Q: inner products and column sums by lincomb of
    CycloNum products."""
    k = table.num_classes
    for i in range(k):
        for j in range(i, k):
            ip = inner_product(table, table.irreducibles[i],
                               table.irreducibles[j])
            want = ONE if i == j else CycloNum.from_rational(0)
            if ip != want:
                raise DatasetError(
                    f"{path}: row orthogonality fails for rows {i},{j} "
                    f"(inner product {ip})")
    for c in range(k):
        for cprime in range(c, k):
            acc = lincomb((1, row[c] * row[cprime].conjugate())
                          for row in table.irreducibles)
            want = CycloNum.from_rational(table.centralizer_order(c)) \
                if c == cprime else CycloNum.from_rational(0)
            if acc != want:
                raise DatasetError(
                    f"{path}: column orthogonality fails for classes {c},{cprime}")


def skewed_table(N: int) -> CharTable:
    """A table that passes every check before row orthogonality and fails
    it with a long inner product: N odd and squarefree, |G| = exponent =
    2N, one class of order 2 and one per divisor d of N, g^q of order
    d / gcd(d, q), all values 1 but E(N) in row 0 and E(N)^2 in row 1 at
    the last class, which holds the classes' remaining size."""
    orders = [d for d in range(1, N + 1) if N % d == 0]
    orders.insert(1, 2)
    primes = [2] + [q for q in orders[2:] if all(q % r for r in range(2, q))]
    classes = [tables.ClassData(f"{d}a", 1, d, {
        q: orders.index(d // q if d % q == 0 else d) for q in primes})
        for d in orders]
    k = len(classes)
    classes[-1] = classes[-1]._replace(size=2 * N - (k - 1))
    rows = [[ONE] * k for _ in range(k)]
    rows[0][-1], rows[1][-1] = CycloNum.zeta(N), CycloNum.zeta(N, 2)
    return CharTable("T", 2 * N, 2 * N, classes, rows)


def reference_independent(bd):
    """The IBr rows are linearly independent, by elimination."""
    return linalg.rank(bd.ibr) == len(bd.ibr)


class TestIntegerValidation:
    """The integer orthogonality check and the IBr count test give the
    verdicts and messages of the references they replace."""

    @staticmethod
    def verdict(check, table):
        """The message check raises on table, or None."""
        try:
            check(table, "T")
        except DatasetError as ex:
            return str(ex)
        return None

    @staticmethod
    def mutations(table, rng):
        """Copies of the table with one value changed to another algebraic
        integer, two different values swapped within a column, or one row
        negated at a class that is not the identity, two of each.  Each
        passes every check of _validate_table before orthogonality."""
        k, ident = table.num_classes, table.identity_class
        for kind in ("change", "swap", "negate") * 2:
            rows = [list(r) for r in table.irreducibles]
            i, c = rng.randrange(k), rng.randrange(k)
            if kind == "change":
                rows[i][c] += 1 if c == ident else \
                    CycloNum.zeta(table.exponent, rng.randrange(table.exponent))
            elif kind == "swap":
                c, i, j = rng.choice([(c, i, j) for c in range(k)
                                      for i in range(k) for j in range(i)
                                      if rows[i][c] != rows[j][c]])
                rows[i][c], rows[j][c] = rows[j][c], rows[i][c]
            else:
                c = rng.choice([c for c in range(k)
                                if c != ident and rows[i][c]] or [ident])
                rows[i][c] = -rows[i][c]
            yield CharTable(table.group_name, table.group_order,
                            table.exponent, table.classes, rows)

    def test_corpus_tables_pass_both_ways(self, corpus):
        datasets = all_datasets(corpus)
        assert len(datasets) == 65
        for ds in datasets:
            assert self.verdict(tables._validate_table, ds.table) is None
            assert self.verdict(reference_orthogonality, ds.table) is None

    def test_mutations_rejected_with_the_reference_message(self, corpus):
        rng = random.Random(9)
        rejected = 0
        for ds in all_datasets(corpus):
            for bad in self.mutations(ds.table, rng):
                got = self.verdict(tables._validate_table, bad)
                assert got == self.verdict(reference_orthogonality, bad)
                rejected += got is not None
        # the other 5 are swaps of 1 and -1 in a table of C2, which relabel it
        assert rejected == 385

    def test_long_inner_product_is_cut_to_its_first_terms(self):
        N = 1155
        table = skewed_table(N)
        size = table.classes[-1].size
        ip = lincomb([(Fraction(2 * N - size, 2 * N), ONE),
                      (Fraction(size, 2 * N), CycloNum.zeta(N, -1))])
        full = str(ip)
        assert len(full) > 10 * tables.MESSAGE_CHARS
        got = self.verdict(tables._validate_table, table)
        count = sum(1 for c in ip.coeffs() if c)
        prefix = (f"T: row orthogonality fails for rows 0,1 (inner product "
                  f"with {count} terms: ")
        assert got.startswith(prefix) and got.endswith("...)")
        head = got[len(prefix):-4]
        # whole terms, as many as fit
        following = re.match(r"[-+][^-+]+", full[len(head):]).group()
        assert full.startswith(head)
        assert len(head) <= tables.MESSAGE_CHARS < len(head + following)

    def test_skewed_table_at_the_ambient_bound_fails_fast(self):
        # the bound is 2N for an odd squarefree N, so this is the largest
        # skewed table a dataset can declare; the bound was chosen for it
        N = tables.AMBIENT_MAX // 2
        assert 2 * N == tables.AMBIENT_MAX
        table = skewed_table(N)
        start = time.perf_counter()
        got = self.verdict(tables._validate_table, table)
        assert time.perf_counter() - start < 2
        assert got.startswith("T: row orthogonality fails for rows 0,1 ")

    def test_rank_verdict_equals_count(self, corpus):
        pairs = 0
        for ds in all_datasets(corpus):
            for p in ds.primes:
                bd = ds.brauer(p)
                assert reference_independent(bd)
                assert len(bd.ibr) == len(bd.regular_classes)
                pairs += 1
        assert pairs == 74

    def test_repeated_ibr_row_is_dependent(self, corpus):
        """An extra IBr row, a copy or a sum of existing rows, with a zero
        decomposition column reproduces the ordinary values; both tests
        call it dependent."""
        for ds in all_datasets(corpus):
            for p in ds.primes:
                bd = ds.brauer(p)
                extra = [bd.ibr[0]]
                if len(bd.ibr) > 1:
                    extra.append([a + b for a, b in zip(bd.ibr[0], bd.ibr[-1])])
                for row in extra:
                    bad = BrauerData(p, bd.regular_classes, bd.ibr + [row],
                                     [r + [0] for r in bd.decomposition],
                                     bd.block_of_irr,
                                     bd.block_of_ibr + [bd.block_of_ibr[0]])
                    assert not reference_independent(bad)
                    with pytest.raises(BlockError, match=r"^T\.ibr: rows are "
                                       r"linearly dependent$"):
                        validate_brauer(ds.table, bad, "T")

    def test_merged_labels_are_not_one_linkage_class(self, corpus):
        """Every shipped Brauer block passes; each of them with its first
        two labels merged into one is refused, since no entry of D links
        two p-blocks."""
        merged = 0
        for ds in all_datasets(corpus):
            for p in ds.primes:
                bd = ds.brauer(p)
                validate_brauer(ds.table, bd, "T")
                labels = list(dict.fromkeys(bd.block_of_irr))
                if len(labels) < 2:
                    continue
                one = {labels[1]: labels[0]}
                bad = BrauerData(p, bd.regular_classes, bd.ibr,
                                 bd.decomposition,
                                 [one.get(x, x) for x in bd.block_of_irr],
                                 [one.get(x, x) for x in bd.block_of_ibr])
                with pytest.raises(BlockError, match=(
                        rf"^T: block '{labels[0]}' is not one linkage class "
                        r"of the decomposition matrix \(irreducible \d+ not "
                        r"linked to \d+\)$")):
                    validate_brauer(ds.table, bad, "T")
                merged += 1
        assert merged == 22
