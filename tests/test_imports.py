"""The package namespace is lazy: each call loads only the modules it uses,
and every public name still resolves to its home module's object.  Neither
the CLI's import nor a corpus load pulls in `dataclasses` or `inspect`, only
`--csv` output loads `csv`, and every function perfbench/tracer.py wraps is
where the tracer looks for it."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import charcond

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charcond"
EVERY_MODULE = {"charcond"} | {f"charcond.{path.stem}"
                               for path in PACKAGE.glob("*.py")
                               if path.stem != "__init__"}


def run_fresh(code: str):
    """The JSON value that `code`, run in a fresh interpreter, prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The charcond modules loaded once `code` has run in a fresh
    interpreter."""
    return set(run_fresh(
        f"{code}\nimport json, sys\nprint(json.dumps(sorted("
        f"k for k in sys.modules if k.split('.')[0] == 'charcond')))"))


def added_by(code: str) -> set[str]:
    """The modules that `code` adds to sys.modules in a fresh interpreter;
    what the interpreter loaded before it (`site` hooks too) is left out."""
    return set(run_fresh(
        "import json, sys\nbefore = set(sys.modules)\n"
        f"{code}\nprint(json.dumps(sorted(set(sys.modules) - before)))"))


class TestImportGraph:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import charcond") == {"charcond"}

    @pytest.mark.parametrize("code", [
        "from charcond import cyclo",
        "import charcond; charcond.cyclo",
        "import charcond; charcond.CycloNum",
        "from charcond import CycloNum, conductor, parse_cyclo",
    ])
    def test_cyclo_loads_only_cyclo(self, code):
        assert loaded_after(code) == {"charcond", "charcond.cyclo"}

    def test_corpus_load_skips_isometry_verify_linalg_cli(self):
        loaded = loaded_after("import charcond; charcond.load_corpus()")
        assert "charcond.tables" in loaded
        assert not loaded & {"charcond.isometry", "charcond.verify",
                             "charcond.linalg", "charcond.cli"}

    def test_cli_loads_every_module(self):
        # perfbench/tracer.py imports charcond.cli and then wraps functions
        # in every charcond module it finds in sys.modules: cli must keep
        # importing every module file of the package.
        assert loaded_after("import charcond.cli") == EVERY_MODULE

    def test_cli_and_corpus_load_skip_dataclasses_and_inspect(self):
        added = added_by("import charcond.cli\ncharcond.load_corpus()")
        assert "charcond.tables" in added
        assert not added & {"dataclasses", "inspect"}

    def test_only_csv_output_loads_csv(self):
        run = ("import io, charcond.cli\ncharcond.cli.run(['conductors', "
               "'--group', 'C4', {}], out=io.StringIO())")
        for flags in ("", "'--json'"):
            assert not added_by(run.format(flags)) & {"csv", "_csv"}, flags
        assert "csv" in added_by(run.format("'--csv'"))

    def test_tracer_layers_resolve_after_cli_import(self):
        # perfbench/tracer.py imports charcond.cli, then looks each LAYERS
        # function up in its module's or class's __dict__; a name it cannot
        # find there crashes every traced benchmark run
        missing = run_fresh(f"""
            import json, sys
            import charcond.cli
            sys.path.insert(0, {str(ROOT / "perfbench")!r})
            from tracer import LAYERS
            missing = []
            for name, (module, path) in LAYERS.items():
                owner = sys.modules.get(module)
                *classes, attr = path.split(".")
                for part in classes:
                    owner = getattr(owner, part, None)
                if attr not in getattr(owner, "__dict__", {{}}):
                    missing.append(name)
            print(json.dumps(missing))
            """)
        assert missing == []


class TestNamespace:
    def test_public_names_are_their_home_objects(self):
        for name in charcond.__all__:
            obj = getattr(charcond, name)
            home = obj.__module__
            assert home.startswith("charcond."), name
            assert getattr(sys.modules[home], name) is obj, name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from charcond import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(charcond.__all__)

    def test_dir_lists_all_and_submodules(self):
        listed = set(dir(charcond))
        assert set(charcond.__all__) <= listed
        assert {name.split(".")[1] for name in EVERY_MODULE - {"charcond"}} \
            <= listed

    def test_submodules_resolve_on_attribute_access(self):
        for name in EVERY_MODULE - {"charcond"}:
            assert getattr(charcond, name.split(".")[1]) is sys.modules[name]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            charcond.no_such_name
        assert not hasattr(charcond, "data")
        with pytest.raises(ImportError):
            exec("from charcond import no_such_name", {})
