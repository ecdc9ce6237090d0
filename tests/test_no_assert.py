"""No `assert` statement in the package: `python -O` strips them, so a
condition the code relies on must raise an error of its own."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charcond"


def assert_statements(package: Path) -> list[str]:
    """module:line of each assert statement in the package's modules."""
    return [f"{path.stem}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]


def test_package_has_no_assert():
    assert assert_statements(PACKAGE) == []


def test_a_planted_assert_is_listed(tmp_path):
    # a copy of the package with one function guarded by an assert
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"))
    source = (tmp_path / "cyclo.py").read_text(encoding="utf-8")
    (tmp_path / "cyclo.py").write_text(
        source + "\n\ndef _order(n):\n    assert n > 0\n    return n\n",
        encoding="utf-8")
    line = len(source.splitlines()) + 4
    assert assert_statements(tmp_path) == [f"cyclo:{line}"]
