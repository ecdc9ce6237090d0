"""The repository tools outside the package."""

import subprocess
import sys
from pathlib import Path

COUNTER = Path(__file__).resolve().parent.parent / "tools" / \
    "count_code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import sys


def f():
    """One line."""
    return sys  # a trailing comment keeps the line
'''


def test_count_code_lines_pins_code_and_physical_lines(tmp_path):
    # 10 lines: the docstrings (3), the comment and the blanks (4) are not
    # code, which leaves import, def and return
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text("")
    out = subprocess.run([sys.executable, str(COUNTER), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["module", "code", "lines"],
        ["empty.py", "0", "0"],
        ["sample.py", "3", "10"],
        ["total", "3", "10"],
    ]
