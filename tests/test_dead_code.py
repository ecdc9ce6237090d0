"""No dead functions: every module-level function and class of the package
is referenced by its code, by the package's public-name table, by a
perfbench/tracer.py layer or by a console script in pyproject.toml.

A reference is a name or an attribute name in code, outside the definition
itself; docstrings and comments do not count, and neither do the tests."""

import ast
import re
from pathlib import Path

import charcond

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charcond"


def outside_references() -> set[str]:
    """Names the package table, the tracer's LAYERS paths and the console
    scripts hold as strings."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["LAYERS"])
    scripts = re.findall(r'=\s*"charcond\.\w+:(\w+)"',
                         (ROOT / "pyproject.toml").read_text())
    return ({path.split(".")[0] for _, path in layers.values()}
            | set(charcond._HOME) | set(scripts))


def dead_definitions(package: Path) -> list[str]:
    """module.name of each top-level function and class (dunders exempt)
    that no other top-level statement of the package reads."""
    defs, reads = [], []  # reads: (module, own name or None, names read)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            reads.append((path.stem, own, {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))}))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not (
                    own.startswith("__") and own.endswith("__")):
                defs.append((path.stem, own))
    used = outside_references()
    return [f"{module}.{name}" for module, name in defs
            if name not in used and not any(
                name in names for mod, own, names in reads
                if (mod, own) != (module, name))]


def test_every_definition_is_referenced():
    assert dead_definitions(PACKAGE) == []


def test_an_unreferenced_function_is_listed(tmp_path):
    # a copy of the package with one function added that only calls itself
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"))
    with open(tmp_path / "tables.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef power_class(table, c, k):\n"
                     "    return power_class(table, c, k - 1)\n")
    assert dead_definitions(tmp_path) == ["tables.power_class"]
