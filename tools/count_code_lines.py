"""Count the code lines and the physical lines of each module of
src/charcond, and their totals.

A code line is a line that is not blank, not a comment and not part of a
docstring (the first statement of a module, class or function, when it is a
string); a physical line is any line of the file.  Run from anywhere:

    python3 tools/count_code_lines.py [SRC_DIR]
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree) -> set[int]:
    """Line numbers spanned by the docstrings in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and i not in skip)


def main(argv) -> None:
    src = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src" / "charcond"
    code_total = line_total = 0
    print(f"{'module':16} {'code':>5} {'lines':>6}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, lines = code_lines(source), len(source.splitlines())
        code_total, line_total = code_total + code, line_total + lines
        print(f"{path.name:16} {code:5} {lines:6}")
    print(f"{'total':16} {code_total:5} {line_total:6}")

if __name__ == "__main__":
    main(sys.argv)
