"""Provenance: the shipped corpus is exactly what the generator produces."""

import io
import subprocess
import sys
from string import ascii_lowercase

import pytest
from conftest import GENERATOR, load_generator

from charcond import isometry as iso
from charcond.cli import EXIT_OK, run
from charcond.tables import default_corpus_dir, load_corpus


def test_generator_reproduces_shipped_corpus(tmp_path, monkeypatch, capsys):
    gen = load_generator(monkeypatch)
    gen.main(["--out", str(tmp_path)])
    shipped = default_corpus_dir()
    names = sorted(path.name for path in shipped.iterdir() if path.is_file())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), \
            f"{name} differs from the generator's output"


def test_generator_builds_an_affine_group(tmp_path, monkeypatch, capsys):
    """F21 = C_7 x| C_3: its datasets validate, and its principal 7-block
    has perfect self-isometries."""
    gen = load_generator(monkeypatch)
    gen.main(["--out", str(tmp_path), "--groups", "F21"])
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["F21.json", "manifest.json"]
    assert run(["validate", "--corpus", str(tmp_path)], out=io.StringIO()) \
        == EXIT_OK
    ref = iso.block_ref(load_corpus(tmp_path)["F21"], 7, "B0")
    found = iso.search_perfect_isometries(ref, ref)
    assert len(ref.block.irr_indices) == 5 and found
    assert iso.check_perfection(found[-1]).perfect


def test_generator_refuses_an_unknown_group(tmp_path, monkeypatch, capsys):
    gen = load_generator(monkeypatch)
    # F33: 11 is its largest prime factor, and 3 does not divide 10
    with pytest.raises(SystemExit):
        gen.main(["--out", str(tmp_path), "--groups", "F21", "F33"])
    assert "unknown group 'F33'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_help_writes_nothing():
    shipped = default_corpus_dir()
    before = {path.name: path.stat().st_mtime_ns for path in shipped.iterdir()}
    proc = subprocess.run([sys.executable, str(GENERATOR), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("usage:")
    assert {path.name: path.stat().st_mtime_ns
            for path in shipped.iterdir()} == before


def test_class_names_past_ten_of_one_order(monkeypatch):
    """C2^4 and C2^5, generated by disjoint transpositions, have 15 and 31
    involution classes; names go on from 2z to 2a1 as in GAP."""
    gen = load_generator(monkeypatch)
    for k, tail in ((4, "2o"), (5, "2e1")):
        points = tuple(range(2 * k))
        gens = [points[:2 * i] + (2 * i + 1, 2 * i) + points[2 * i + 2:]
                for i in range(k)]
        names = gen.class_names(gen.Group(gens, gen.perm_mul, points))
        involutions = ([f"2{c}" for c in ascii_lowercase]
                       + [f"2{c}1" for c in ascii_lowercase])[:2**k - 1]
        assert names == ["1a"] + involutions
        assert names[-1] == tail and len(set(names)) == 2**k
