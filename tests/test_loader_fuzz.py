"""Seeded single mutations of the shipped datasets and manifest.

Each mutated input either loads and passes `GroupDataset.validate`, which
computes what `validate` computes, or ends in a data error (`DatasetError`,
`BlockError`, `GendecError`), never in another exception.  Each case is
written to a directory of its own, under the file name it mutates, so that
its messages name that file.
"""

import copy
import json
import random
import shutil

from conftest import c8_brauer_at_4, merge_centralizer_blocks

from charcond.blocks import BlockError
from charcond.cyclo import cyclo_to_str, parse_cyclo
from charcond.gendec import GendecError
from charcond.tables import (DatasetError, default_corpus_dir, load_corpus,
                             load_dataset)

DATA_ERRORS = (DatasetError, BlockError, GendecError)
CASES, SEED = 240, 13


def nodes(node, path=()):
    """(path, value) of every node below the root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def retyped(value):
    """A value of another JSON type."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return "1" if isinstance(value, (list, dict)) else [value]
    return str(value) if isinstance(value, int) else 1


KINDS = ("bad-index", "bad-root", "drop", "duplicate", "huge", "retype")


def applies(kind, parent, value) -> bool:
    """Whether a mutation of this kind can change this node."""
    if kind == "drop":
        return isinstance(parent, dict)
    if kind == "bad-root":
        return isinstance(value, str)
    if kind in ("bad-index", "huge"):
        return type(value) is int
    if kind == "duplicate":
        return isinstance(value, list) and bool(value)
    return True


def mutate(data, rng):
    """A copy of data with one seeded mutation, and its description."""
    data = copy.deepcopy(data)
    kind = rng.choice(KINDS)
    path = rng.choice([path for path, value in nodes(data)
                       if applies(kind, get(data, path[:-1]), value)])
    parent, key = get(data, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = retyped(parent[key])
    elif kind == "bad-root":
        parent[key] = "E(2²)"  # a digit that str.isdigit() accepts
    elif kind == "bad-index":
        parent[key] = rng.choice([-1, 99])
    elif kind == "huge":
        parent[key] = 10 ** 40 + 1
    else:
        parent[key].append(copy.deepcopy(rng.choice(parent[key])))
    return data, f"{kind} at {'.'.join(map(str, path))}"


def get(data, path):
    for key in path:
        data = data[key]
    return data


def load_all(load, arg, expected=DATA_ERRORS):
    """None if arg loads and validates, or ends in an expected error;
    otherwise the escaping exception."""
    try:
        loaded = load(arg)
        for ds in loaded.values() if isinstance(loaded, dict) else [loaded]:
            ds.validate()
    except expected:
        return None
    except Exception as ex:  # the escapes this test looks for
        return ex
    return None


def negate_4b(data):
    """C4 with its class 4b's column negated: orthogonality, integrality
    and degrees still hold, but no character is trivial."""
    for row in data["irreducibles"]:
        row[3] = cyclo_to_str(-parse_cyclo(row[3]))


def write_case(directory, name, data):
    """data, bytes or JSON, as directory/name, in a new directory: a new
    file costs far less than overwriting one on some file systems."""
    directory.mkdir()
    path = directory / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    return path


def test_single_mutations_end_in_data_errors(tmp_path):
    rng = random.Random(SEED)
    files = sorted(p for p in default_corpus_dir().glob("*.json")
                   if p.name != "manifest.json")
    shipped = {p.name: json.loads(p.read_text()) for p in files}
    cases = [(name, *mutate(shipped[name], rng))
             for name in (rng.choice(sorted(shipped)) for _ in range(CASES))]
    twisted = copy.deepcopy(shipped["C4.json"])
    negate_4b(twisted)
    cases.append(("C4.json", twisted, "negate the column of class 4b"))
    raw = (default_corpus_dir() / "A5.json").read_bytes()
    cases += [("A5.json", b"\xff\xfe" + raw, "bytes that are not UTF-8"),
              ("A5.json", raw[:len(raw) // 2], "a truncated file")]
    for value in ("E(" + "9" * 5000 + ")", "9" * 5000 + "*E(4)"):
        long = copy.deepcopy(shipped["C4.json"])
        long["irreducibles"][1][2] = value
        cases.append(("C4.json", long, "a number of 5000 digits"))
    long = copy.deepcopy(shipped["C4.json"])
    long["irreducibles"][1][1] = "+".join(f"1/{10 ** 998 + k}"
                                          for k in (1, 3, 7, 9, 13))
    cases.append(("C4.json", long, "a denominator of about 5000 digits"))
    cases.append(("C8.json", c8_brauer_at_4(), "Brauer data under key 4"))
    merged = copy.deepcopy(shipped["SL23.json"])
    merge_centralizer_blocks(merged)
    cases.append(("SL23.json", merged, "a centralizer's blocks merged"))
    escapes = []
    for i, (name, data, what) in enumerate(cases):
        ex = load_all(load_dataset, write_case(tmp_path / str(i), name, data))
        if ex is not None:
            escapes.append(f"{name}: {what}: {type(ex).__name__}: {ex}")
    assert not escapes


def test_manifest_mutations_end_in_data_errors(tmp_path):
    c4 = {"name": "C4", "file": "C4.json", "primes": [2]}
    s3 = {"name": "S3", "file": "S3.json", "primes": [2, 3, 5]}
    manifest = {"format": 1, "groups": [c4, s3]}
    rng = random.Random(SEED)
    cases = [mutate(manifest, rng)[0] for _ in range(12)] + [
        {"format": 1},
        {"format": 1, "groups": {}},
        {"format": 1, "groups": [c4, {"name": "S3", "primes": [2]}]},
        {"format": 1, "groups": [c4, "S3.json"]},
        {"format": 1, "groups": [dict(c4, file=4), s3]},
        {"format": 1, "groups": [c4, dict(s3, file="C4.json")]},
        {"format": 1, "groups": [c4, dict(s3, name="Sym3", primes=[2])]},
        {"format": 1, "groups": [c4, dict(s3, file="S4.json")]},
        b"\xff\xfe" + json.dumps(manifest).encode(),
        json.dumps(manifest)[:30].encode(),
    ]
    escapes = []
    for i, data in enumerate(cases):
        path = write_case(tmp_path / str(i), "manifest.json", data)
        for name in ("C4.json", "S3.json"):
            shutil.copy(default_corpus_dir() / name, path.parent / name)
        ex = load_all(load_corpus, path.parent)
        if ex is not None:
            escapes.append(f"{data}: {type(ex).__name__}: {ex}")
    assert not escapes
