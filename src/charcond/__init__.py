"""Exact block-theoretic character computations for small finite groups.

Computes conductors of generalised characters, generalised decomposition
numbers and block data from ingested character-table datasets, and checks
the conductor identities and perfect-isometry properties on the shipped
corpus.

Importing the package is cheap: it loads no submodule.  A name in
``__all__`` or a submodule name (``charcond.cyclo``, ...) loads its home
module on first use (PEP 562), so cyclotomic arithmetic alone never loads
the block, isometry and verification code.
"""

from importlib import import_module

# public name -> home submodule
_HOME = {name: module for module, names in (
    ("blocks", "Block cartan_matrix partition_blocks"),
    ("cyclo", "CycloNum conductor conductor_p parse_cyclo"),
    ("gendec", "GendecMatrix check_second_main gendec_all"),
    ("isometry", "BlockRef IsometryCandidate block_ref check_perfection "
                 "search_perfect_isometries"),
    ("tables", "CharTable GroupDataset char_conductor default_corpus_dir "
               "load_corpus load_dataset virtual_character"),
    ("verify", "check_theorem1"),
) for name in names.split()}
_SUBMODULES = ("blocks", "cli", "cyclo", "gendec", "isometry", "linalg",
               "residue", "tables", "verify")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
