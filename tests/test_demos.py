"""Every demo script runs to completion and prints something, and README's
Quick start prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run a fresh interpreter on the source tree, from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start():
    # README's first python block, with each line that a "# -> value"
    # comment follows printed; the printed lines must be those values
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.search(r"```python\n(.*?)```", text, re.S).group(1).split("\n")
    want = []
    for i, line in enumerate(lines):
        if line.startswith("# -> "):
            want.append(line[len("# -> "):])
            lines[i - 1] = f"print({lines[i - 1]})"
    assert want == ["[1, 5, 5, 1, 1]"]
    proc = run_python("-c", "\n".join(lines))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want
