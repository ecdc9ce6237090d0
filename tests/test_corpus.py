"""Provenance: the shipped corpus is exactly what the generator produces."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from string import ascii_lowercase

from charcond.tables import default_corpus_dir

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "generate_corpus.py"


def load_generator(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends src/
    spec = importlib.util.spec_from_file_location("generate_corpus", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_generator_reproduces_shipped_corpus(tmp_path, monkeypatch, capsys):
    gen = load_generator(monkeypatch)
    gen.main(["--out", str(tmp_path)])
    shipped = default_corpus_dir()
    names = sorted(path.name for path in shipped.iterdir() if path.is_file())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), \
            f"{name} differs from the generator's output"


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
