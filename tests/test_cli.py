"""Command-line interface: outputs, formats and exit codes."""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import c8_brauer_at_4, merge_centralizer_blocks

from charcond import blocks, cyclo, gendec
from charcond.cli import (EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_PIPE,
                          EXIT_USAGE, run)
from charcond.tables import AMBIENT_MAX, default_corpus_dir


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestValidate:
    def test_corpus_validates(self):
        code, text = invoke("validate")
        assert code == EXIT_OK
        assert text.count("ok") == 10

    def test_single_group(self):
        code, text = invoke("validate", "--group", "Q8")
        assert code == EXIT_OK and "Q8" in text


    @pytest.mark.parametrize("where,key,message", [
        ("top", "x2", "C4.json.primes: non-integer prime 'x2'"),
        ("top", "1", "C4.json.primes: key '1' is not a prime"),
        ("top", "02", "C4.json.primes: key '02' is not a prime in plain "
         "decimal"),
        ("top", "0_5", "C4.json.primes: key '0_5' is not a prime in plain "
         "decimal"),
        ("centralizer", "x2",
         "C4.json.primes.2.sections[0].centralizer.primes: non-integer"),
    ])
    def test_bad_prime_key_is_data_error(self, tmp_path, capsys, where, key,
                                         message):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        holder = data if where == "top" else \
            data["primes"]["2"]["sections"][0]["centralizer"]
        holder["primes"][key] = holder["primes"].pop("2")
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("ambient,row,where,message", [
        (4, ("irreducibles", 1, 1), "C4.json.irreducibles[1][1]",
         "E(1009) does not lie in the declared ambient Q(zeta_4)"),
        (4, ("primes", "2", "ibr", 0, 0), "C4.json.primes.2.ibr[0][0]",
         "E(1009) does not lie in the declared ambient Q(zeta_4)"),
        (0, ("irreducibles", 1, 1), "C4.json.ambient",
         "must be a positive integer, got 0"),
    ])
    def test_root_outside_ambient_is_rejected_before_parsing(
            self, tmp_path, capsys, monkeypatch, ambient, row, where, message):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        data["ambient"] = ambient
        holder = data
        for key in row[:-1]:
            holder = holder[key]
        holder[row[-1]] = "1+E(1009)"
        path.write_text(json.dumps(data))
        built = []
        cyclo._relation.cache_clear()  # else a warm order skips the patch
        real_poly = cyclo.cyclotomic_poly
        monkeypatch.setattr(cyclo, "cyclotomic_poly",
                            lambda n: built.append(n) or real_poly(n))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert f"{where}: {message}" in capsys.readouterr().err
        assert 1009 not in built

    def test_huge_ambient_is_rejected_before_parsing(self, tmp_path,
                                                     capsys):
        # 400 bytes: a group of order 10^12 with two classes and E(10^12)
        # in one cell, whose parse would ask for 10^12 coefficients
        n = 10 ** 12
        corpus = tmp_path / "data"
        corpus.mkdir()
        (corpus / "manifest.json").write_text(json.dumps(
            {"format": 1, "groups": [{"file": "H.json"}]}))
        (corpus / "H.json").write_text(json.dumps({
            "format": 1, "ambient": n, "name": "H", "order": n,
            "exponent": n, "irreducibles": [["1", "1"], ["1", f"E({n})"]],
            "classes": [
                {"name": "1a", "size": 1, "order": 1,
                 "powermaps": {"2": 0, "5": 0}},
                {"name": "xa", "size": n - 1, "order": n,
                 "powermaps": {"2": 1, "5": 1}}]}))
        start = time.perf_counter()
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert time.perf_counter() - start < 1
        assert code == EXIT_DATA
        assert (f"H.json.ambient: {n} exceeds the largest supported order "
                f"{AMBIENT_MAX}") in capsys.readouterr().err

    @pytest.mark.parametrize("ambient,where", [
        (AMBIENT_MAX, "exponent"), (AMBIENT_MAX + 1, "ambient")])
    def test_ambient_bound_is_inclusive(self, tmp_path, capsys, ambient,
                                        where):
        # C4 at the bound gets past the ambient check to the exponent's
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        data["ambient"] = ambient
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert f"C4.json.{where}: " in capsys.readouterr().err

    def test_non_decimal_digit_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        data["irreducibles"][1][1] = "E(2\u00b2)"
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert "C4.json.irreducibles[1][1]: " in capsys.readouterr().err

    # int() refuses a decimal string of more than 4,300 digits; the first
    # number is caught by the load's E(n) scan, the second by parse_cyclo
    @pytest.mark.parametrize("value,message", [
        ("E(" + "9" * 5000 + ")", "E(n) of 5000 digits does not lie in the "
         "declared ambient Q(zeta_4)"),
        ("9" * 5000 + "*E(4)", "integer has too many digits (at position 0)"),
    ], ids=["root", "coefficient"])
    def test_over_long_number_is_data_error(self, tmp_path, capsys, value,
                                            message):
        def change(data):
            data["irreducibles"][1][2] = value
        corpus = tampered_corpus(tmp_path, "C4.json", change)
        assert invoke("validate", "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert f"C4.json.irreducibles[1][2]: {message}" in \
            capsys.readouterr().err

    # int() reads 4,000 digits, but row 0's norm, printed when its
    # orthogonality fails, would have 8,000; row 3's failing inner
    # product is linear in the value
    @pytest.mark.parametrize("row", [0, 3])
    def test_number_past_the_digit_bound_is_data_error(self, tmp_path,
                                                       capsys, row):
        def change(data):
            data["irreducibles"][row][1] = "9" * 4000 + "*E(4)"
        corpus = tampered_corpus(tmp_path, "C4.json", change)
        assert invoke("validate", "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert f"C4.json.irreducibles[{row}][1]: integer has too many " \
            f"digits (at position 0)" in capsys.readouterr().err

    # each number has 999 digits, the sum's denominator about 5,000
    def test_value_past_the_digit_bound_is_data_error(self, tmp_path, capsys):
        def change(data):
            data["irreducibles"][1][1] = "+".join(
                f"1/{10 ** 998 + k}" for k in (1, 3, 7, 9, 13))
        corpus = tampered_corpus(tmp_path, "C4.json", change)
        assert invoke("validate", "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert "C4.json.irreducibles[1][1]: value's numerator or " \
            "denominator exceeds 1000 digits" in capsys.readouterr().err

    def test_ambient_checked_per_file_under_the_corpus_memo(self, tmp_path,
                                                           capsys):
        # S3.json (ambient 6), loaded before D8.json (ambient 4), holds
        # the string E(3)
        def change(data):
            data["irreducibles"][1][1] = "E(3)"
        corpus = tampered_corpus(tmp_path, "D8.json", change)
        assert '"E(3)"' in (corpus / "S3.json").read_text()
        assert invoke("validate", "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert "D8.json.irreducibles[1][1]: E(3) does not lie in the " \
            "declared ambient Q(zeta_4)" in capsys.readouterr().err

    def test_non_integral_brauer_value_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        data["primes"]["2"]["ibr"][0][0] = "1/2"
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert ("C4.json.primes.2.ibr[0][0]: value 1/2 is not an algebraic "
                "integer") in capsys.readouterr().err

    def test_bad_value_at_two_paths_reports_the_first(self, tmp_path,
                                                       capsys):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        data["irreducibles"][2][1] = data["irreducibles"][1][3] = "E(4)^"
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "C4.json.irreducibles[1][3]: expected an integer" in err
        assert "irreducibles[2][1]" not in err

    @pytest.mark.parametrize("where,value,message", [
        (("subgroups", 0, "primes", "5"), ["B0"],
         "A5.json.subgroups[0].primes.5: expected dict, got list"),
        (("primes", "5", "sections"), 5,
         "A5.json.primes.5.sections: expected list, got int"),
        (("subgroups",), {}, "A5.json.subgroups: expected list, got dict"),
        (("irreducibles", 3, 2), "1/2*E(5)",
         "A5.json.irreducibles[3][2]: value 1/2*E(5) is not an algebraic "
         "integer"),
        (("primes", "2", "sections", 1, "u_class"), 99,
         "A5.json.primes.2.sections[1].u_class: bad class index 99"),
        (("primes", "2", "sections", 1, "u_class"), -1,
         "A5.json.primes.2.sections[1].u_class: bad class index -1"),
        (("primes", "2", "sections", 1, "u_times", 0), "x",
         "A5.json.primes.2.sections[1].u_times[0]: expected int, got str"),
        (("primes", "2", "sections", 1, "u_times", 0), 1.5,
         "A5.json.primes.2.sections[1].u_times[0]: expected int, got float"),
        (("primes", "5", "ibr", 1, 1), "1/2*E(5)",
         "A5.json.primes.5.ibr[1][1]: value 1/2*E(5) is not an algebraic "
         "integer"),
        (("primes", "5", "ibr", 1, 1), "E(5)",
         "A5.json.primes.5: decomposition row 1 does not reproduce the "
         "character value on regular class 1"),
        (("primes", "5", "regular_classes", 1), "x",
         "A5.json.primes.5.regular_classes[1]: expected int, got str"),
        (("primes", "5", "decomposition", 0), 5,
         "A5.json.primes.5.decomposition[0]: expected list, got int"),
        (("primes", "5", "ibr", 0), 5,
         "A5.json.primes.5.ibr[0]: expected list, got int"),
        (("irreducibles", 0), 5,
         "A5.json.irreducibles[0]: expected list, got int"),
        (("subgroups", 0, "primes", "5", "ti"), "no",
         "A5.json.subgroups[0].primes.5.ti: expected bool, got str"),
        (("primes", "2", "block_of_irr", 0), [1],
         "A5.json.primes.2.block_of_irr[0]: expected str, got list"),
    ], ids=["subgroup-primes-list", "sections-int", "subgroups-object",
            "non-integral-value", "u-class-out-of-range", "u-class-negative",
            "u-times-string", "u-times-float", "non-integral-ibr-value",
            "corrupted-ibr-row", "regular-class-string", "decomposition-row-int",
            "ibr-row-int", "irreducibles-row-int", "ti-string",
            "block-label-list"])
    def test_mistyped_field_is_data_error(self, tmp_path, capsys, where,
                                          value, message):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "A5.json"
        data = json.loads(path.read_text())
        holder = data
        for key in where[:-1]:
            holder = holder[key]
        holder[where[-1]] = value
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    # one field of each integer kind in A5.json; a 0 or 1 becomes the equal
    # JSON boolean, which an isinstance(v, int) check would accept
    @pytest.mark.parametrize("where", [
        ("format",), ("ambient",), ("exponent",), ("classes", 0, "order"),
        ("classes", 0, "size"), ("classes", 1, "powermaps", "3"),
        ("primes", "2", "regular_classes", 0),
        ("primes", "2", "decomposition", 0, 0),
        ("primes", "2", "sections", 0, "u_class"),
        ("primes", "2", "sections", 0, "u_in_centralizer"),
        ("primes", "2", "sections", 0, "u_times", 1),
        ("subgroups", 0, "fusion", 0),
        ("primes", "2", "sections", 0, "centralizer", "order"),
    ], ids=lambda where: "-".join(map(str, where)))
    def test_boolean_in_integer_field_is_data_error(self, tmp_path, capsys,
                                                    where):
        data = json.loads((default_corpus_dir() / "A5.json").read_text())
        holder = data
        for key in where[:-1]:
            holder = holder[key]
        value = holder[where[-1]]
        holder[where[-1]] = bool(value) if value in (0, 1) else True
        (tmp_path / "A5.json").write_text(json.dumps(data))
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": 1, "groups": [{"file": "A5.json"}]}))
        code, _ = invoke("validate", "--corpus", str(tmp_path))
        assert code == EXIT_DATA
        path = "A5.json" + "".join(f"[{k}]" if isinstance(k, int) else
                                   f".{k}" for k in where)
        assert f"{path}: expected int, got bool" in capsys.readouterr().err

    @pytest.mark.parametrize("table,changes,message", [
        ((), {("ambient",): 8}, "C4.json.exponent: 4 is not the declared "
         "ambient order 8"),
        ((), {("ambient",): 8, ("exponent",): 8}, "C4.json.exponent: 8 is "
         "not the lcm 4 of the class element orders"),
        ((), {("ambient",): 12, ("exponent",): 12, ("classes", 2, "order"): 3},
         "C4.json.exponent: 12 does not divide the group order 4"),
        (("primes", "2", "sections", 0, "centralizer"), {("exponent",): 0},
         "C4.json.primes.2.sections[0].centralizer.exponent: 0 does not "
         "divide the declared ambient order 4"),
    ], ids=["top-exponent-not-ambient", "exponent-not-lcm",
            "exponent-not-dividing-order", "nested-exponent-zero"])
    def test_structure_checked_before_values(self, tmp_path, capsys, table,
                                             changes, message):
        # a value of the same table that does not parse is never reached
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "C4.json"
        data = json.loads(path.read_text())
        holder = data
        for key in table:
            holder = holder[key]
        holder["irreducibles"][1][1] = "E("
        for where, value in changes.items():
            target = holder
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = value
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_repeated_ibr_row_is_data_error(self, tmp_path, capsys):
        # a copy of IBr row 0 with a zero decomposition column reproduces
        # every ordinary value; only the independence test rejects it
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "A5.json"
        data = json.loads(path.read_text())
        pdata = data["primes"]["5"]
        pdata["ibr"].append(list(pdata["ibr"][0]))
        for row in pdata["decomposition"]:
            row.append(0)
        pdata["block_of_ibr"].append(pdata["block_of_ibr"][0])
        path.write_text(json.dumps(data))
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert "A5.json.primes.5.ibr: rows are linearly dependent" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("where,mapping,message", [
        ("subgroup", {"B0": "B9"}, "A5.json.subgroups[0].primes.5."
         "correspondent_block.B0: D10 has no block 'B9' at p=5"),
        ("subgroup", {"B9": "B0"}, "A5.json.subgroups[0].primes.5."
         "correspondent_block.B9: A5 has no block 'B9' at p=5"),
        ("section", {"B0": "B9"}, "A5.json.primes.5.sections[1]."
         "correspondent_block.B0: A5 has no block 'B9' at p=5"),
        ("section", {"B9": "B0"}, "A5.json.primes.5.sections[1]."
         "correspondent_block.B9: C_A5(5a) has no block 'B9' at p=5"),
        ("section", ["B0"], "A5.json.primes.5.sections[1]."
         "correspondent_block: expected dict, got list"),
    ], ids=["subgroup-value", "subgroup-key", "section-value", "section-key",
            "section-list"])
    def test_unknown_correspondent_block_is_data_error(
            self, tmp_path, capsys, where, mapping, message):
        # a subgroup's map sends group blocks to subgroup blocks; a
        # section's sends centralizer blocks to group blocks
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        path = corpus / "A5.json"
        data = json.loads(path.read_text())
        holder = data["subgroups"][0]["primes"]["5"] if where == "subgroup" \
            else data["primes"]["5"]["sections"][1]
        holder["correspondent_block"] = mapping
        path.write_text(json.dumps(data))
        code, _ = invoke("restrict-check", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err


def tampered_corpus(tmp_path, file, change):
    """A copy of the shipped corpus with change(data) applied to one file's
    parsed JSON; returns the copy's directory."""
    corpus = tmp_path / "data"
    shutil.copytree(default_corpus_dir(), corpus)
    path = corpus / file
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))
    return corpus


class TestLoadErrors:
    """Data errors that once passed `validate` and ended in a traceback in
    a later command, or were silently skipped."""

    @staticmethod
    def negate_4b(data):  # orthogonality, integrality and degrees still hold
        for row in data["irreducibles"]:
            row[3] = cyclo.cyclo_to_str(-cyclo.parse_cyclo(row[3]))

    @pytest.mark.parametrize("command", ["validate", "blocks", "verify"])
    def test_column_sign_twist_is_data_error(self, tmp_path, capsys,
                                             command):
        corpus = tampered_corpus(tmp_path, "C4.json", self.negate_4b)
        code, _ = invoke(command, "--corpus", str(corpus), "--group", "C4")
        assert code == EXIT_DATA
        assert "C4.json.irreducibles: no trivial character" in \
            capsys.readouterr().err

    def test_relabelled_blocks_fail_validate(self, tmp_path, capsys):
        # one label on both 5-blocks: the defect-zero character 4 shares no
        # Brauer character with the principal block, so the load refuses it
        def relabel(data):
            pdata = data["primes"]["5"]
            pdata["block_of_irr"] = ["B0"] * len(pdata["block_of_irr"])
            pdata["block_of_ibr"] = ["B0"] * len(pdata["block_of_ibr"])
            pdata["sections"][0]["correspondent_block"] = {"B0": "B0",
                                                           "B1": "B0"}
        corpus = tampered_corpus(tmp_path, "A5.json", relabel)
        for command in ("validate", "blocks", "verify"):
            code, _ = invoke(command, "--corpus", str(corpus))
            assert code == EXIT_DATA, command
            assert "A5.json.primes.5: block 'B0' is not one linkage class " \
                "of the decomposition matrix (irreducible 4 not linked to " \
                "0)" in capsys.readouterr().err

    def test_merged_section_centralizer_labels_fail_at_load(self, tmp_path,
                                                            capsys):
        # bad data, not a section-vanishing failure
        corpus = tampered_corpus(tmp_path, "SL23.json",
                                 merge_centralizer_blocks)
        for command in ("validate", "verify"):
            assert invoke(command, "--corpus", str(corpus), "--group",
                          "SL(2,3)") == (EXIT_DATA, ""), command
            assert capsys.readouterr().err == (
                "charcond: error: SL23.json.primes.3.sections[1].centralizer"
                ".primes.3: block 'B0' is not one linkage class of the "
                "decomposition matrix (irreducible 1 not linked to 0)\n"), \
                command

    def test_fusion_that_is_no_restriction_fails_at_load(self, tmp_path,
                                                         capsys):
        # D10's two 5-classes both sent to 5a: element orders and
        # centralizer orders still fit, but Res chi is no virtual character
        def fuse(data):
            data["subgroups"][0]["fusion"] = [0, 1, 3, 3]
        corpus = tampered_corpus(tmp_path, "A5.json", fuse)
        for command in ("validate", "conductors", "restrict-check"):
            assert invoke(command, "--corpus", str(corpus)) == \
                (EXIT_DATA, ""), command
            assert "A5.json.subgroups[0].fusion: restriction of irreducible " \
                "1 is not a virtual character of D10" in \
                capsys.readouterr().err, command

    def test_fusion_with_negative_restriction_fails_at_load(self, tmp_path,
                                                            capsys):
        # C_D8(2b) = C2 x C2 with its three involutions all fused to the
        # central 2a: orders and centralizer orders fit, and Res chi_4 =
        # (2, -2, -2, -2) = -1 + lambda_1 + lambda_2 + lambda_3 is a
        # virtual character but not a character
        def fuse(data):
            sec = data["primes"]["2"]["sections"][2]
            table = {k: v for k, v in sec["centralizer"].items()
                     if k != "primes"}
            data["subgroups"] = [{"name": "C_D8(2b)", "fusion": [0, 1, 1, 1],
                                  "table": table}]
        corpus = tampered_corpus(tmp_path, "D8.json", fuse)
        for command in ("validate", "restrict-check"):
            assert invoke(command, "--corpus", str(corpus)) == \
                (EXIT_DATA, ""), command
            assert "D8.json.subgroups[0].fusion: restriction of irreducible " \
                "4 is not a character of C_D8(2b) (coefficient -1 at " \
                "irreducible 0)" in capsys.readouterr().err, command

    @staticmethod
    def swap_u_times(data):  # A4's d^u at u = 1 no longer reproduce D
        u_times = data["primes"]["2"]["sections"][0]["u_times"]
        u_times[2], u_times[3] = u_times[3], u_times[2]

    @staticmethod
    def d10_at_2(data, change):
        """D10's p = 2 Brauer block on A5's D10 subgroup, with change
        applied to it."""
        d10 = json.loads((default_corpus_dir() / "D10.json").read_text())
        block = {k: v for k, v in d10["primes"]["2"].items()
                 if k != "sections"}
        change(block)
        data["subgroups"][0]["table"]["primes"]["2"] = block
        data["subgroups"][0]["primes"] = {"2": {}}

    @classmethod
    def merge_d10(cls, data):
        # its two degree-2 characters, which lie in two blocks, labelled as
        # one: no Brauer character links them
        def merge(block):
            block["block_of_irr"] = ["B0", "B0", "B1", "B1"]
            block["block_of_ibr"] = ["B0", "B1", "B1"]
        cls.d10_at_2(data, merge)

    @classmethod
    def mislabel_d10(cls, data):
        # a Brauer table that reproduces the characters and links one
        # degree-2 character to the principal block: its trivial Brauer
        # character replaced by 1 - chi_2, so that D's first row is
        # (1, 1, 0); the labels follow that D, so the load passes, but not
        # the central characters, which keep chi_2 in a block of its own
        def mislabel(block):
            block["ibr"][0] = ["-1", "2+E(5)^2+E(5)^3", "1-E(5)^2-E(5)^3"]
            block["decomposition"] = [[1, 1, 0], [1, 1, 0], [0, 1, 0],
                                      [0, 0, 1]]
            block["block_of_irr"] = ["B0", "B0", "B0", "B1"]
            block["block_of_ibr"] = ["B0", "B0", "B1"]
        cls.d10_at_2(data, mislabel)

    @pytest.mark.parametrize("file,change,commands,message", [
        ("A4.json", "swap_u_times", ["gendec"], "A4 p=2: ordinary "
         "decomposition numbers of character 1 differ from the ingested "
         "matrix"),
        ("A5.json", "mislabel_d10", ["verify", "restrict-check"], "D10 p=2: "
         "ingested label 'B0' covers different irreducibles than the "
         "central-character partition"),
        ("A5.json", "merge_d10", ["verify", "restrict-check"], "A5.json"
         ".subgroups[0].table.primes.2: block 'B1' is not one linkage class "
         "of the decomposition matrix (irreducible 3 not linked to 2)"),
    ], ids=["d-u", "subgroup-label", "subgroup-merged-labels"])
    def test_validate_rejects_what_later_commands_reject(
            self, tmp_path, capsys, file, change, commands, message):
        corpus = tampered_corpus(tmp_path, file, getattr(self, change))
        for command in commands + ["validate"]:
            assert invoke(command, "--corpus", str(corpus)) == \
                (EXIT_DATA, ""), command
            assert capsys.readouterr().err == \
                f"charcond: error: {message}\n", command

    # bytes that are not UTF-8: each input file names itself in the error
    @pytest.mark.parametrize("file", ["C4.json", "manifest.json"])
    def test_undecodable_corpus_file_is_data_error(self, tmp_path, capsys,
                                                   file):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        (corpus / file).write_bytes(b"\xff\xfe{")
        code, _ = invoke("validate", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert str(corpus / file) in capsys.readouterr().err

    def test_undecodable_certificate_is_data_error(self, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        cert_file.write_bytes(b"\xff\xfe{")
        code, _ = invoke("isometry-check", str(cert_file))
        assert code == EXIT_DATA
        assert str(cert_file) in capsys.readouterr().err

    # 3,000 nested lists, 6 KB, are more than Python's JSON parser nests
    DEEP = "[" * 3000 + "]" * 3000

    @pytest.mark.parametrize("file", ["C4.json", "manifest.json"])
    def test_deeply_nested_corpus_file_is_data_error(self, tmp_path, capsys,
                                                     file):
        corpus = tmp_path / "data"
        shutil.copytree(default_corpus_dir(), corpus)
        (corpus / file).write_text(self.DEEP)
        assert invoke("validate", "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert f"{corpus / file}: cannot read JSON (" in \
            capsys.readouterr().err

    def test_deeply_nested_certificate_is_data_error(self, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(self.DEEP)
        assert invoke("isometry-check", str(cert_file)) == (EXIT_DATA, "")
        assert f"{cert_file}: cannot read JSON (" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "conductors", "blocks"])
    def test_composite_prime_key_sharing_the_ambient_is_data_error(
            self, tmp_path, capsys, command):
        # consistent Brauer data under "4" once loaded, and then validate
        # and blocks failed while reducing modulo 4
        corpus = tmp_path / "data"
        corpus.mkdir()
        (corpus / "C8.json").write_text(json.dumps(c8_brauer_at_4()))
        (corpus / "manifest.json").write_text(json.dumps(
            {"format": 1, "groups": [{"file": "C8.json"}]}))
        assert invoke(command, "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert "C8.json.primes.4: 4 shares a factor with the ambient order " \
            "8 but is not a prime dividing it" in capsys.readouterr().err

    @pytest.mark.parametrize("target,code", [(0, EXIT_OK), (2, EXIT_DATA)])
    def test_power_map_under_a_composite_key(self, tmp_path, capsys, target,
                                             code):
        # 3a^9 = 1a: a map under key 9 must name a class of order
        # 3 / gcd(3, 9) = 1, though 9 is no prime
        corpus = tmp_path / "data"
        corpus.mkdir()
        data = json.loads((default_corpus_dir() / "S3.json").read_text())
        data["classes"][2]["powermaps"]["9"] = target
        (corpus / "S3.json").write_text(json.dumps(data))
        (corpus / "manifest.json").write_text(json.dumps(
            {"format": 1, "groups": [{"file": "S3.json"}]}))
        assert invoke("validate", "--corpus", str(corpus))[0] == code
        err = capsys.readouterr().err
        assert ("S3.json.classes[2] (3a): g^9 lands in class of order 3, "
                "expected 1" in err) == (code == EXIT_DATA)


class TestManifest:
    """The manifest lists the dataset files; each dataset owns its name and
    primes."""

    @staticmethod
    def with_manifest(tmp_path, change):
        return tampered_corpus(tmp_path, "manifest.json", change)

    def test_group_and_primes_come_from_the_dataset(self, tmp_path):
        def change(data):
            a5 = next(e for e in data["groups"] if e["name"] == "A5")
            a5["primes"] = [2, 3]
            a5["name"] = "Alt5"
        corpus = self.with_manifest(tmp_path, change)
        got = invoke("verify", "--corpus", str(corpus), "--group", "A5")
        assert got == invoke("verify", "--group", "A5")
        assert got[0] == EXIT_OK and len(got[1].splitlines()) == 16

    @pytest.mark.parametrize("change,message", [
        (lambda data: data.pop("groups"),
         "manifest.json: missing field 'groups'"),
        (lambda data: data["groups"][1].pop("file"),
         "manifest.json.groups[1]: missing field 'file'"),
        (lambda data: data["groups"].__setitem__(2, "D8.json"),
         "manifest.json.groups[2]: missing field 'file'"),
        (lambda data: data["groups"][3].__setitem__("file", "C4.json"),
         "manifest.json.groups[3]: C4.json loads group 'C4' a second time"),
    ], ids=["no-groups", "no-file", "string-entry", "same-group-twice"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, change,
                                              message):
        corpus = self.with_manifest(tmp_path, change)
        code, _ = invoke("verify", "--corpus", str(corpus))
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fmt,message", [
        (2, "manifest.json.format: unsupported format 2"),
        (True, "manifest.json.format: expected int, got bool"),
    ], ids=["2", "true"])
    def test_manifest_format_must_be_1(self, tmp_path, capsys, fmt, message):
        corpus = self.with_manifest(tmp_path,
                                    lambda data: data.update(format=fmt))
        assert invoke("validate", "--corpus", str(corpus)) == (EXIT_DATA, "")
        assert message in capsys.readouterr().err


class TestConductors:
    def test_a5_at_5(self):
        code, text = invoke("conductors", "--group", "A5", "--prime", "5")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        cols = [line.split()[4:6] for line in lines[1:]]
        assert cols == [["1", "1"], ["5", "5"], ["5", "5"],
                        ["1", "1"], ["1", "1"]]

    def test_json_format(self):
        code, text = invoke("conductors", "--group", "S3", "--prime", "3",
                            "--json")
        assert code == EXIT_OK
        records = json.loads(text)
        assert len(records) == 3 and records[0]["group"] == "S3"

    def test_csv_format(self):
        code, text = invoke("conductors", "--group", "S3", "--prime", "3",
                            "--csv")
        assert code == EXIT_OK
        assert text.splitlines()[0] == "group,p,chi,degree,conductor,p_part"

    def test_unknown_group_is_data_error(self):
        code, _ = invoke("conductors", "--group", "M11")
        assert code == EXIT_DATA

    def test_validate_unknown_group_is_data_error(self, capsys):
        assert invoke("validate", "--group", "NOPE") == (EXIT_DATA, "")
        assert "no group named 'NOPE' in the corpus" in capsys.readouterr().err

    def test_uncovered_prime_is_data_error(self):
        code, _ = invoke("conductors", "--group", "A5", "--prime", "7")
        assert code == EXIT_DATA


class TestVerify:
    def test_full_corpus_passes(self):
        code, text = invoke("verify", "--samples", "2")
        assert code == EXIT_OK
        assert "FAIL" not in text and "PASS" in text

    def test_deterministic_output(self):
        a = invoke("verify", "--group", "S4", "--seed", "7")
        b = invoke("verify", "--group", "S4", "--seed", "7")
        assert a == b

    def test_structure_computed_once_per_dataset_and_prime(self, monkeypatch):
        # blocks, projectives and d^u are read from the dataset that holds
        # them; key each computation by (dataset or table object, p)
        calls = {}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args):
                obj, p = key(*args)
                calls.setdefault((name, id(obj), p), []).append(obj)
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(blocks, "partition_blocks", lambda ds, p: (ds, p))
        counted(blocks, "projective_characters", lambda bd: (bd, bd.p))
        counted(gendec, "gendec_all", lambda ds, p: (ds, p))
        code, text = invoke("verify")
        assert code == EXIT_OK and "FAIL" not in text
        assert {name for name, _, _ in calls} == \
            {"partition_blocks", "projective_characters", "gendec_all"}
        assert all(len(objs) == 1 for objs in calls.values())


    @pytest.mark.parametrize("samples", ["-3", "-1"])
    def test_negative_samples_is_usage_error(self, capsys, samples):
        with pytest.raises(SystemExit) as err:
            run(["verify", "--samples", samples])
        assert err.value.code == EXIT_USAGE
        assert f"argument --samples: {samples} is negative" in \
            capsys.readouterr().err

    def test_zero_samples_checks_irreducibles_only(self):
        code, text = invoke("verify", "--group", "C4", "--samples", "0")
        assert code == EXIT_OK and "conductor-identity     PASS    4 records" \
            in text

    def test_non_integral_gendec_entry_is_data_error(self, capsys,
                                                     half_gendec_entries):
        code, _ = invoke("verify", "--group", "S3")
        assert code == EXIT_DATA
        assert "is not an algebraic integer" in capsys.readouterr().err


class TestIsometry:
    def test_search_and_check(self, tmp_path):
        code, text = invoke("isometry-search", "A5:5:B0", "D10:5:B0",
                            "--json")
        assert code == EXIT_OK
        certs = json.loads(text)
        assert certs
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(certs[0]))
        code, text = invoke("isometry-check", str(cert_file))
        assert code == EXIT_OK and "True" in text

    def test_bad_certificate(self, tmp_path):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps({
            "source": {"group": "A5", "prime": 5, "block": "B0"},
            "target": {"group": "D10", "prime": 5, "block": "B0"},
            "permutation": [1, 0, 2, 3], "signs": [1, 1, 1, 1]}))
        code, _ = invoke("isometry-check", str(cert_file))
        assert code == EXIT_CHECK

    @pytest.fixture(scope="class")
    def certs(self):
        return invoke("isometry-search", "A5:5:B0", "D10:5:B0", "--json")[1]

    def test_search_output_list_is_data_error(self, tmp_path, capsys, certs):
        # the search prints a list; isometry-check takes one certificate
        cert_file = tmp_path / "certs.json"
        cert_file.write_text(certs)
        code, _ = invoke("isometry-check", str(cert_file))
        assert code == EXIT_DATA
        assert "one object from the list" in capsys.readouterr().err

    MALFORMED = {
        "missing prime": (lambda c: c["source"].pop("prime"),
                          "certificate.source: missing field 'prime'"),
        "bool prime": (lambda c: c["target"].update(prime=True),
                       "target.prime"),
        "string prime": (lambda c: c["target"].update(prime="5"),
                         "target.prime"),
        "int group": (lambda c: c["source"].update(group=5), "source.group"),
        "null block": (lambda c: c["target"].update(block=None),
                       "target.block"),
        "string side": (lambda c: c.update(source="A5:5:B0"),
                        "certificate.source: expected dict, got str"),
        "missing side": (lambda c: c.pop("target"),
                         "certificate: missing field 'target'"),
        "string sign": (lambda c: c["signs"].__setitem__(1, "-1"),
                        "certificate.signs[1]: expected int, got str"),
        "bool sign": (lambda c: c["signs"].__setitem__(1, True),
                      "certificate.signs[1]: expected int, got bool"),
        "string permutation": (lambda c: c.update(permutation="0123"),
                               "certificate.permutation: expected list, "
                               "got str"),
        "float index": (lambda c: c["permutation"].__setitem__(0, 0.0),
                        "certificate.permutation[0]: expected int, got "
                        "float"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_certificate_is_data_error(self, tmp_path, capsys,
                                                 certs, case):
        mutate, message = self.MALFORMED[case]
        cert = json.loads(certs)[0]
        mutate(cert)
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        code, _ = invoke("isometry-check", str(cert_file))
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_non_object_certificate_is_data_error(self, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text('"A5:5:B0"')
        code, _ = invoke("isometry-check", str(cert_file))
        assert code == EXIT_DATA
        assert "certificate: expected dict, got str" in \
            capsys.readouterr().err

    def test_bound_exceeded(self):
        code, _ = invoke("isometry-search", "A5:5:B0", "D10:5:B0",
                         "--bound", "3")
        assert code == EXIT_DATA

    @pytest.mark.parametrize("bound", ["-1", "-7"])
    def test_negative_bound_is_usage_error(self, capsys, bound):
        with pytest.raises(SystemExit) as err:
            run(["isometry-search", "A5:5:B0", "D10:5:B0", "--bound", bound])
        assert err.value.code == EXIT_USAGE
        assert f"argument --bound: {bound} is negative" in \
            capsys.readouterr().err

    def test_search_across_primes_is_data_error(self, capsys):
        # the parent printed an empty table and exited 1
        code, text = invoke("isometry-search", "A5:5:B0", "C4:2:B0")
        assert (code, text) == (EXIT_DATA, "")
        assert "source block at p=5 and target block at p=2" in \
            capsys.readouterr().err

    def test_check_across_primes_is_data_error(self, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps({
            "source": {"group": "C4", "prime": 2, "block": "B0"},
            "target": {"group": "A5", "prime": 5, "block": "B0"},
            "permutation": [0, 1, 2, 3], "signs": [1, 1, 1, 1]}))
        assert invoke("isometry-check", str(cert_file)) == (EXIT_DATA, "")
        assert "source block at p=2 and target block at p=5" in \
            capsys.readouterr().err

    def test_bad_spec(self):
        code, _ = invoke("isometry-search", "A5", "D10:5:B0")
        assert code == EXIT_DATA

    def test_over_long_prime_in_spec(self, capsys):
        # int() refuses a decimal string of more than 4,300 digits
        spec = "A5:" + "9" * 5000 + ":B0"
        assert invoke("isometry-search", spec, "D10:5:B0") == (EXIT_DATA, "")
        assert "bad block spec 'A5:999" in capsys.readouterr().err

    def test_non_decimal_prime_in_spec(self, capsys):
        # a superscript two passes str.isdigit() but not int()
        code, _ = invoke("isometry-search", "A5:\u00b2:B0", "D10:5:B0")
        assert code == EXIT_DATA
        assert "A5:\u00b2:B0" in capsys.readouterr().err


class TestOther:
    def test_blocks_output(self):
        code, text = invoke("blocks", "--group", "S3", "--prime", "2")
        assert code == EXIT_OK
        assert "B0" in text and "B1" in text

    def test_gendec_dump(self):
        code, text = invoke("gendec", "--group", "S3", "--prime", "3")
        assert code == EXIT_OK and "3a" in text

    def test_restrict_check(self):
        code, text = invoke("restrict-check", "--group", "A5", "--prime", "5")
        assert code == EXIT_OK and "FAIL" not in text

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_closed_reader_prints_no_traceback(self):
        # `charcond gendec | head`, with the reader gone before the first
        # write: the console entry point exits quietly
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from charcond.cli import main; main()",
                 "gendec"], stdout=write_end, stderr=subprocess.PIPE,
                env=env, text=True, timeout=60)
        finally:
            os.close(write_end)
        # no traceback, and no "Exception ignored" from the exit flush
        assert proc.stderr == ""
        assert proc.returncode == EXIT_PIPE

    # each subcommand registers only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["validate", "--bound", "3"],
        ["validate", "--prime", "7"],
        ["conductors", "--seed", "9"],
        ["isometry-search", "A5:5:B0", "D10:5:B0", "--group", "A5"],
        ["isometry-check", "cert.json", "--prime", "5"],
    ])
    def test_unread_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == EXIT_USAGE
