"""The package namespace is lazy: each call loads only the modules it uses,
and every public name still resolves to its home module's object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charcond

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charcond"
EVERY_MODULE = {"charcond"} | {f"charcond.{path.stem}"
                               for path in PACKAGE.glob("*.py")
                               if path.stem != "__init__"}


def loaded_after(code: str) -> set[str]:
    """The charcond modules loaded once `code` has run in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
             f"k for k in sys.modules if k.split('.')[0] == 'charcond')))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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
