"""Provenance: the shipped corpus is exactly what the generator produces."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from charcond.tables import default_corpus_dir

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "generate_corpus.py"


def test_generator_reproduces_shipped_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends src/
    spec = importlib.util.spec_from_file_location("generate_corpus", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
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
