"""Command-line interface: outputs, formats and exit codes."""

import io
import json
import shutil

import pytest

from charcond.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, run
from charcond.tables import default_corpus_dir


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

    def test_bound_exceeded(self):
        code, _ = invoke("isometry-search", "A5:5:B0", "D10:5:B0",
                         "--bound", "3")
        assert code == EXIT_DATA

    def test_bad_spec(self):
        code, _ = invoke("isometry-search", "A5", "D10:5:B0")
        assert code == EXIT_DATA


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
